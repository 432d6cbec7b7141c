"""Kernel conformance: every runtime's kernel obeys the same contract.

The five run loops of the tree — the simulated cluster queue, the Cth
thread scheduler, charm/AMPI delivery, BigSim, and POSE — all dispatch
through :class:`repro.kernel.EventKernel`.  This suite drives the kernel
*as exposed by each runtime* through the behaviors the unification must
hold invariant: FIFO order at equal timestamps, cancellation during
dispatch, re-entrant scheduling from a handler, and exact quiescence.
"""

import pytest

from repro.kernel import EventKernel
from repro.sim import Cluster
from tests.core.conftest import make_cluster


def _sim_kernel():
    return Cluster(1).queue


def _cth_kernel():
    _, scheds, _, _ = make_cluster(1)
    return scheds[0].kernel


def _charm_kernel():
    from repro.charm import CharmRuntime
    cl = Cluster(2)
    rt = CharmRuntime(cl)
    return rt.cluster.queue


def _bigsim_kernel():
    from repro.bigsim import BigSimEngine, TargetMachine
    from repro.workloads.md import MDConfig, MDWorkload
    eng = BigSimEngine(2, TargetMachine(dims=(2, 2, 2)),
                       MDWorkload(MDConfig(dims=(2, 2, 2))), steps=1)
    eng.run()               # drain the application; the kernel stays up
    assert eng.kernel.empty
    return eng.kernel


def _pose_kernel():
    from repro.pose import PoseEngine
    eng = PoseEngine(Cluster(2))
    return eng.kernel


PROVIDERS = {
    "sim": _sim_kernel,
    "cth": _cth_kernel,
    "charm": _charm_kernel,
    "bigsim": _bigsim_kernel,
    "pose": _pose_kernel,
}


@pytest.fixture(params=sorted(PROVIDERS))
def kernel(request):
    k = PROVIDERS[request.param]()
    assert isinstance(k, EventKernel)
    assert k.empty, "conformance drives start from an idle kernel"
    return k


def test_fifo_at_equal_timestamps(kernel):
    fired = []
    t = kernel.current_time + 10.0
    for i in range(6):
        kernel.schedule(t, fired.append, i)
    kernel.run()
    assert fired == list(range(6))


def test_cancellation_during_dispatch(kernel):
    fired = []
    t = kernel.current_time
    victim = kernel.schedule(t + 2.0, fired.append, "victim")
    kernel.schedule(t + 1.0, victim.cancel)
    kernel.schedule(t + 3.0, fired.append, "survivor")
    kernel.run()
    assert fired == ["survivor"]
    assert victim.cancelled and not victim.fired
    assert kernel.empty


def test_reentrant_scheduling_from_a_handler(kernel):
    fired = []
    t = kernel.current_time

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            kernel.schedule(kernel.current_time + 1.0, chain, depth + 1)

    kernel.schedule(t + 1.0, chain, 0)
    kernel.run()
    assert fired == [0, 1, 2, 3]
    assert kernel.empty


def test_cancel_heavy_lazy_sweep(kernel):
    """Cancel two thirds of a large schedule (with double-cancels):
    the lazy-cancellation sweep must drop the stale entries without
    perturbing survivor order or the O(1) live count."""
    t = kernel.current_time
    fired = []
    evs = [kernel.schedule(t + float(i % 13), fired.append, i)
           for i in range(300)]
    for i, ev in enumerate(evs):
        if i % 3:
            ev.cancel()
    for ev in evs[1::30]:               # double-cancel a sample: no-ops
        ev.cancel()
    survivors = [i for i in range(300) if i % 3 == 0]
    assert len(kernel) == len(survivors)
    assert kernel.run() == len(survivors)
    assert fired == sorted(survivors, key=lambda i: (i % 13, i))
    assert kernel.empty
    for i, ev in enumerate(evs):
        assert ev.fired == (i % 3 == 0)
        assert ev.cancelled == (i % 3 != 0)


def test_skip_current_heavy(kernel):
    """Mostly-skipped dispatch: skipped events execute but count
    neither in run()'s return, events_processed, nor a budget."""
    t = kernel.current_time
    fired = []

    def skipper(i):
        fired.append(i)
        kernel.skip_current()

    def keeper(i):
        fired.append(i)

    for i in range(40):
        kernel.schedule(t + float(i), skipper if i % 4 else keeper, i)
    before = kernel.events_processed
    assert kernel.run() == 10           # only the 10 keepers count
    assert fired == list(range(40))     # but every event executed
    assert kernel.events_processed - before == 10

    # Budget interaction: skipped events are free against max_events.
    fired.clear()
    base = kernel.current_time
    for i in range(12):
        kernel.schedule(base + 1.0 + i, skipper if i % 2 else keeper,
                        100 + i)
    assert kernel.run(max_events=3) == 3
    assert fired == [100, 101, 102, 103, 104]
    assert len(kernel) == 7
    assert kernel.run() == 3            # drain the rest: 3 more keepers
    assert kernel.empty


def test_quiescence_exactness(kernel):
    quiesced = []
    fn = kernel.hooks.subscribe("on_quiescence", quiesced.append)
    try:
        t = kernel.current_time
        for i in range(3):
            kernel.schedule(t + float(i + 1), lambda: None)
        assert kernel.run() == 3
        # One drain, one quiescence — no spurious re-fires, and the
        # processed count is exact (no phantom or double-counted events).
        assert quiesced == [kernel]
        assert kernel.empty and len(kernel) == 0
        assert kernel.run() == 0
        assert len(quiesced) == 2
    finally:
        kernel.hooks.unsubscribe("on_quiescence", fn)
