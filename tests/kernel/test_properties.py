"""Property tests for the kernel ordering invariants.

Seeded random schedules driven against *both* implementations — the
fast path (:mod:`repro.kernel.event`) and the frozen reference
(:mod:`tests.kernel.refkernel`) — asserting the contract properties
directly rather than by example:

* ``(time, seq)`` FIFO total order: the fire sequence is exactly the
  stable sort of the schedule by time;
* cancellation never resurrects: a cancelled event never fires, no
  matter how cancels interleave with dispatch, and double-cancels /
  cancels-after-fire stay no-ops;
* ``len()`` matches the live count through arbitrary cancel storms;
* quiescence fires exactly once per drain, after ``on_idle`` re-arms
  are exhausted.
"""

import random

import pytest

from repro.kernel.event import EventKernel as FastKernel
from tests.kernel.refkernel import EventKernel as RefKernel

KERNELS = {"fast": FastKernel, "ref": RefKernel}
SEEDS = range(8)


@pytest.fixture(params=sorted(KERNELS))
def kernel_cls(request):
    return KERNELS[request.param]


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_total_order(kernel_cls, seed):
    """Events fire in the stable (time, seq) sort of their schedule."""
    rng = random.Random(seed)
    k = kernel_cls(name="prop")
    n = 300
    pairs = [(float(rng.randrange(12)), i) for i in range(n)]
    log = []
    for t, i in pairs:
        k.schedule(t, log.append, i)
    assert k.run() == n
    assert log == [i for _t, i in sorted(pairs)]
    assert k.current_time == max(t for t, _i in pairs)


@pytest.mark.parametrize("seed", SEEDS)
def test_cancellation_never_resurrects(kernel_cls, seed):
    """No cancelled event ever fires; cancel stays sticky and no-op
    on fired events — even when callbacks cancel mid-dispatch."""
    rng = random.Random(seed)
    k = kernel_cls(name="prop")
    n = 200
    log = []
    handles = []

    def body(i):
        log.append(i)
        if handles and rng.random() < 0.4:
            handles[rng.randrange(len(handles))].cancel()

    for i in range(n):
        handles.append(k.schedule(float(rng.randrange(9)), body, i))
    pre_cancelled = set()
    for _ in range(n // 3):
        j = rng.randrange(n)
        handles[j].cancel()
        pre_cancelled.add(j)
        handles[j].cancel()     # double-cancel: still one cancellation
    k.run()
    fired = set(log)
    assert not (fired & pre_cancelled)
    for i, ev in enumerate(handles):
        assert ev.cancelled != ev.fired     # every event ended one way
        assert ev.fired == (i in fired)
        was = ev.fired
        ev.cancel()                          # cancel-after-drain no-op
        assert ev.fired == was and ev.cancelled == (not was)
    assert len(k) == 0 and k.empty


@pytest.mark.parametrize("seed", SEEDS)
def test_len_matches_live_count_through_cancel_storms(kernel_cls, seed):
    """O(1) counters agree with a model through schedule/cancel storms."""
    rng = random.Random(seed)
    k = kernel_cls(name="prop")
    handles = []
    live = set()
    for round_ in range(6):
        for _ in range(rng.randrange(10, 60)):
            i = len(handles)
            handles.append(k.schedule(float(rng.randrange(20)),
                                      lambda: None))
            live.add(i)
        for _ in range(rng.randrange(80)):
            j = rng.randrange(len(handles))
            handles[j].cancel()
            live.discard(j)
        assert len(k) == k.live == len(live)
        assert k.empty == (not live)
    assert k.run() == len(live)
    assert len(k) == 0 and k.empty


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_quiescence_fires_exactly_when_drained(kernel_cls, seed):
    """One quiescence per run(), only after re-arm pumps go dry."""
    rng = random.Random(seed)
    k = kernel_cls(name="prop")
    quiesced = []
    pumps = {"left": 3}

    def on_idle(kernel):
        assert kernel.empty, "idle hook must only fire on a drained queue"
        if pumps["left"] > 0:
            pumps["left"] -= 1
            kernel.schedule(kernel.current_time + 1.0, lambda: None)
            return True
        return False

    k.hooks.subscribe("on_idle", on_idle)
    k.hooks.subscribe("on_quiescence", quiesced.append)
    for _ in range(rng.randrange(1, 20)):
        k.schedule(float(rng.randrange(5)), lambda: None)
    k.run()
    assert quiesced == [k]      # exactly one, after all three pumps
    assert pumps["left"] == 0
    k.run()
    assert len(quiesced) == 2   # an already-empty run still quiesces
