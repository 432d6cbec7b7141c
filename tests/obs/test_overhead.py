"""The zero-cost-when-off pin for the observability layer.

The structural tests are the real gate: after attach + detach every
kernel is provably cold again (``hooks.hot`` False, no channel
subscribers), and the kernel has exactly one dispatch loop, so a
once-observed run executes the same instruction stream as a
never-observed one, every hook branch not taken.  The timing test is a
loose sanity bound only — host timing on a shared CI container is
noise; the dispatch cost itself is tracked, end to end, by
``perf/run.py``.
"""

import ast
import inspect
import textwrap
import time

from repro.kernel import EventKernel
from repro.kernel.hooks import NOTIFY_HOOKS
from repro.obs import MetricsRegistry, RunObserver

from tests.obs.conftest import run_observed


def test_attach_detach_leaves_no_residue(observed_run):
    rt, obs = observed_run
    obs.detach()
    for bus in [rt.cluster.queue.hooks] + \
            [s.kernel.hooks for s in rt.schedulers]:
        assert bus.hot is False
        assert all(getattr(bus, name) == [] for name in NOTIFY_HOOKS)
        for ch in ("net.send", "migration.done", "checkpoint.write"):
            assert not bus.has(ch)


def test_kernel_has_a_single_dispatch_loop():
    """Exactly one ``EventKernel`` method invokes event callbacks
    (``item[_FN](...)`` on a slot or ``ev.fn(...)`` on a handle), so a
    second loop with its own hook discipline cannot quietly return."""
    def fires_callback(call):
        f = call.func
        return (isinstance(f, ast.Subscript) and isinstance(f.slice, ast.Name)
                and f.slice.id == "_FN") or (
            isinstance(f, ast.Attribute) and f.attr == "fn")

    tree = ast.parse(textwrap.dedent(inspect.getsource(EventKernel)))
    firing = sorted({
        method.name for method in ast.walk(tree)
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and fires_callback(node)})
    assert firing == ["_drain"]


def test_observed_run_equals_unobserved_run():
    """Observation is pure: virtual time and placement are unchanged."""
    rt_plain, _ = _plain_run()
    rt_obs, obs = run_observed()
    assert rt_obs.makespan_ns == rt_plain.makespan_ns
    assert rt_obs.pe_of_ranks() == rt_plain.pe_of_ranks()
    assert rt_obs.migrator.migrations_completed == \
        rt_plain.migrator.migrations_completed


def _plain_run():
    from repro.ampi import AmpiRuntime
    from tests.obs.conftest import ring_migrate_main
    rt = AmpiRuntime(4, 8, ring_migrate_main())
    rt.run()
    return rt, None


def test_cold_path_timing_is_sane():
    """Interleaved best-of comparison, never-observed vs attach+detach.

    Both sides run hooks-off; the generous 2x bound only catches a
    detach that forgot to clear a subscription (which would cost far
    more than noise).  The cost envelope lives in the bench gate, not
    here.
    """
    N = 3000

    def run_cold():
        kernel = EventKernel(name="cold")
        nop = lambda: None  # noqa: E731
        for i in range(N):
            kernel.schedule(float(i), nop)
        kernel.run()

    def run_detached():
        kernel = EventKernel(name="was-observed")

        class _FakeCluster:
            def __init__(self, k):
                self.processors = []
                self.queue = k

        obs = RunObserver(_FakeCluster(kernel),
                          registry=MetricsRegistry())
        obs.attach()
        obs.detach()
        nop = lambda: None  # noqa: E731
        for i in range(N):
            kernel.schedule(float(i), nop)
        kernel.run()

    best_cold = best_detached = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run_cold()
        best_cold = min(best_cold, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_detached()
        best_detached = min(best_detached, time.perf_counter() - t0)
    assert best_detached < best_cold * 2.0
