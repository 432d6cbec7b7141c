"""Differential harness: fast kernel vs the frozen reference kernel.

The fast path (:mod:`repro.kernel.event`) re-implements the event core
around batched slot storage; :mod:`tests.kernel.refkernel` is the
frozen pre-fast-path implementation.  This suite runs *the same
randomized seeded schedule* through both and asserts they are
indistinguishable: identical event orderings, identical
``events_processed``/``len()``/``current_time``, and — with a
:class:`KernelTracer` attached to each — byte-identical traces.

Schedules are generated per seed by a deterministic driver whose
callbacks draw from a ``random.Random(seed)`` stream in dispatch order:
mixed inserts (including equal-timestamp FIFO ties), cancellations
(pending, fired, and double), ``skip_current``, quiescence re-arm
pumps, and segmented ``until``/``max_events`` policies.  If the two
kernels ever dispatch in different orders the streams diverge and the
fire logs cannot match.

The fast kernel has one dispatch loop with per-event reference
semantics, so the same holds *inside* a hooks-off drain: a tracer
subscribed from a callback sees the rest of the run exactly as the
reference kernel reports it, and ``len()``/``live``/``empty``/
``events_processed`` read from a callback are exact at every event.

The third acceptance leg — unchanged chaos golden fingerprints — is
enforced by ``tests/chaos/test_golden_seeds.py`` and
``tests/obs/test_golden_metrics.py``, which run the production (fast)
kernel against fingerprints recorded before the refactor.
"""

import json
import random

import pytest

from repro.errors import ReproError
from repro.kernel import KernelTracer
from repro.kernel.event import EventKernel as FastKernel
from tests.kernel.refkernel import EventKernel as RefKernel

#: Relative delays drawn by the driver: duplicates and 0.0 on purpose,
#: so equal-timestamp FIFO ties and run-now events are common.
_DTS = (0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 5.0, 7.5)
_CATS = ("alpha", "beta", "")
_SPAWN_LIMIT = 160

COLD_SEEDS = list(range(25))
TRACED_SEEDS = list(range(100, 120))
POLICY_SEEDS = list(range(200, 212))
MID_DRAIN_SEEDS = list(range(300, 310))


class _Driver:
    """Runs one seeded random schedule against one kernel."""

    def __init__(self, kernel_cls, seed, traced=False, probe=False):
        self.kernel = kernel_cls(name="diff")
        self.rng = random.Random(seed)
        self.log = []
        self.handles = []
        self.next_id = 0
        self.pumps = 2
        self.probe = probe      # log the O(1) counters from inside callbacks
        self.tracer = KernelTracer().attach(self.kernel) if traced else None

    def spawn(self, dt):
        ident = self.next_id
        self.next_id += 1
        ev = self.kernel.schedule(
            self.kernel.current_time + dt, self.body, ident,
            category=_CATS[ident % len(_CATS)],
            flow=f"f{ident % 4}")
        self.handles.append(ev)
        return ev

    def body(self, ident):
        self.log.append((ident, self.kernel.current_time))
        if self.probe:
            self.log.append(self.counters())
        r = self.rng
        act = r.random()
        if act < 0.40 and self.next_id < _SPAWN_LIMIT:
            for _ in range(r.randint(1, 2)):
                self.spawn(r.choice(_DTS))
        elif act < 0.55 and self.handles:
            # Cancel a random event: may be pending, fired, or already
            # cancelled — the last two must be no-ops on both kernels.
            self.handles[r.randrange(len(self.handles))].cancel()
        elif act < 0.65:
            self.kernel.skip_current()
        if self.probe:
            self.log.append(self.counters())

    def counters(self):
        k = self.kernel
        return (len(k), k.live, k.empty, k.events_processed)

    def seed_initial(self, n=30):
        for _ in range(n):
            self.spawn(self.rng.choice(_DTS))
        # A cancel storm before the first dispatch, to exercise the
        # never-ran path on both implementations.
        for _ in range(self.rng.randint(0, 8)):
            self.handles[self.rng.randrange(len(self.handles))].cancel()

    def state(self):
        k = self.kernel
        return {
            "log": self.log,
            "processed": k.events_processed,
            "len": len(k),
            "live": k.live,
            "time": k.current_time,
            "flags": [(ev.cancelled, ev.fired) for ev in self.handles],
        }


def _pump(driver):
    """Quiescence re-arm hook: two extra rounds of work per run."""
    def on_idle(kernel):
        if driver.pumps > 0:
            driver.pumps -= 1
            driver.spawn(1.0)
            return True
        return False
    return on_idle


@pytest.mark.parametrize("seed", COLD_SEEDS)
def test_cold_schedules_identical(seed):
    """Hooks-off runs (the batched fast path vs the reference loop)."""
    states = []
    for cls in (RefKernel, FastKernel):
        d = _Driver(cls, seed)
        d.seed_initial()
        ret = d.kernel.run()
        states.append((d.state(), ret))
    assert states[0] == states[1]
    assert states[0][0]["len"] == 0


@pytest.mark.parametrize("seed", TRACED_SEEDS)
def test_traced_schedules_byte_identical(seed):
    """Instrumented runs: every trace entry identical on both kernels."""
    results = []
    for cls in (RefKernel, FastKernel):
        d = _Driver(cls, seed, traced=True)
        hook = _pump(d)
        d.kernel.hooks.subscribe("on_idle", hook)
        d.seed_initial()
        ret = d.kernel.run()
        dump = "\n".join(json.dumps(e, sort_keys=True)
                         for e in d.tracer.entries)
        results.append((d.state(), ret, dump, d.tracer.counters))
    ref, fast = results
    assert ref[0] == fast[0]
    assert ref[1] == fast[1]
    assert ref[2] == fast[2], "trace streams diverged"
    assert ref[3] == fast[3]
    assert ref[3]["quiescences"] == 1


@pytest.mark.parametrize("seed", POLICY_SEEDS)
def test_segmented_policy_runs_identical(seed):
    """until/max_events cuts leave both kernels in the same state."""
    states = []
    for cls in (RefKernel, FastKernel):
        d = _Driver(cls, seed)
        d.seed_initial()
        rng = random.Random(seed + 999)
        rets = []
        for _ in range(4):
            if rng.random() < 0.5:
                rets.append(d.kernel.run(max_events=rng.randint(1, 12)))
            else:
                bound = d.kernel.current_time + rng.choice((1.0, 4.0))
                rets.append(d.kernel.run(until=bound))
        rets.append(d.kernel.run())    # final drain
        states.append((d.state(), rets))
    assert states[0] == states[1]
    assert states[0][0]["len"] == 0


@pytest.mark.parametrize("seed", MID_DRAIN_SEEDS)
def test_tracer_subscribed_mid_drain_byte_identical(seed):
    """A tracer attached from inside a callback of a hooks-off drain
    records from that event's own ``end`` onwards, on both kernels."""
    results = []
    for cls in (RefKernel, FastKernel):
        d = _Driver(cls, seed)
        d.seed_initial()
        tracer = KernelTracer()
        d.kernel.schedule(2.0, tracer.attach, d.kernel)
        ret = d.kernel.run()
        dump = "\n".join(json.dumps(e, sort_keys=True)
                         for e in tracer.entries)
        results.append((d.state(), ret, dump, tracer.counters))
    ref, fast = results
    assert ref == fast
    first = json.loads(ref[2].split("\n")[0])
    assert (first["ev"], first["site"]) == ("end", "KernelTracer.attach")
    assert ref[3]["dispatched"] > 1 and ref[3]["quiescences"] == 1


@pytest.mark.parametrize("seed", MID_DRAIN_SEEDS)
def test_counters_read_mid_drain_identical(seed):
    """``len``/``live``/``empty``/``events_processed`` observed from
    inside callbacks (before and after each one's spawn, cancel or
    ``skip_current``) match the reference at every event."""
    states = []
    for cls in (RefKernel, FastKernel):
        d = _Driver(cls, seed, probe=True)
        d.seed_initial()
        ret = d.kernel.run()
        states.append((d.state(), ret))
    assert states[0] == states[1]
    probes = [e for e in states[0][0]["log"] if len(e) == 4]
    assert len({p[0] for p in probes}) > 5      # the queue really moved


def test_post_matches_reference_schedule_order():
    """The handle-free ``post()`` ingest dispatches exactly like the
    reference kernel's ``schedule()`` over the same (time, seq) keys."""
    rng = random.Random(7)
    times = [rng.choice(_DTS) * 3 for _ in range(400)]
    ref, fast = RefKernel(name="diff"), FastKernel(name="diff")
    ref_log, fast_log = [], []
    for i, t in enumerate(times):
        ref.schedule(t, ref_log.append, i)
        fast.post(t, fast_log.append, (i,))
    assert ref.run() == fast.run() == 400
    assert ref_log == fast_log


def test_post_batch_matches_reference_time_order():
    """Bulk ingest preserves the reference dispatch sequence: per-event
    args and flow labels land on the event they were posted with."""
    rng = random.Random(11)
    times = [float(rng.randrange(50)) for _ in range(500)]
    flows = [f"r{i % 7}" for i in range(500)]
    ref, fast = RefKernel(name="diff"), FastKernel(name="diff")
    ref_log, fast_log = [], []
    for i, (t, fl) in enumerate(zip(times, flows)):
        ref.schedule(t, lambda i: ref_log.append((ref.current_time, i)), i,
                     category="bulk", flow=fl)
    slots = fast.post_batch(
        times, lambda i: fast_log.append((fast.current_time, i)),
        [(i,) for i in range(500)], flows, "bulk")
    assert [(ev.category, ev.flow) for ev in ref.live_events()] \
        == [(ev.category, ev.flow) for ev in fast.live_events()]
    assert [s[1] for s in slots] == list(range(500))
    assert ref.run() == fast.run() == 500
    assert ref_log == fast_log


def test_post_batch_rejects_unparallel_lists():
    fast = FastKernel(name="diff")
    with pytest.raises(ReproError, match="must parallel"):
        fast.post_batch([0.0, 1.0], print, [()], [None, None])
    with pytest.raises(ReproError, match="must parallel"):
        fast.post_batch([0.0, 1.0], print, [(), ()], [None])
    assert len(fast) == 0
