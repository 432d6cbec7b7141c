"""Tier-1 scale smoke: the batched fast path at 100k events.

Proves the two load-bearing claims of the fast-path refactor at a size
where per-event waste is unmissable:

* a 100k-event hooks-off run completes well inside a generous
  wall-clock ceiling (the dispatch budget for ROADMAP item 1's
  10⁵-flow regime);
* the drain allocates O(1), not O(events): ``tracemalloc`` across
  ``run()`` shows no per-event residue — the only allocations are the
  batch container itself, released by the end of the drain.

The timing ceiling is deliberately loose (~50ms expected, 15s allowed)
so a loaded CI container cannot flake it; the allocation assertions are
structural and host-independent.
"""

import gc
import time
import tracemalloc

from repro.kernel import EventKernel


def _nop():
    pass


def test_100k_event_batched_run_wall_clock_and_allocations():
    n = 100_000
    k = EventKernel(name="scale")
    # Non-monotonic times: the refill actually sorts, FIFO ties abound.
    times = [float(i % 997) for i in range(n)]
    items = k.post_batch(times, _nop, [()] * n, [None] * n)
    assert len(items) == n and len(k) == n

    gc.collect()
    tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    snap0 = tracemalloc.take_snapshot()
    t0 = time.perf_counter()
    processed = k.run()
    wall = time.perf_counter() - t0
    snap1 = tracemalloc.take_snapshot()
    gc.collect()
    after, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert processed == n
    assert len(k) == 0 and k.empty
    assert k.current_time == 996.0
    assert wall < 15.0, f"100k-event drain took {wall:.2f}s"
    # O(1) per-event allocation: net traced memory across the whole
    # drain stays far below one object per event (100k anythings would
    # be megabytes).
    assert after - before < 512 * 1024
    # And specifically no per-event records built inside the kernel:
    # surviving allocation blocks attributed to event.py stay constant.
    kernel_stats = [s for s in snap1.compare_to(snap0, "filename")
                    if "event.py" in (s.traceback[0].filename or "")]
    assert sum(s.count_diff for s in kernel_stats) < 100


def test_100k_cancel_storm_drains_flat():
    n = 100_000
    k = EventKernel(name="scale-cancel")
    items = k.post_batch([float(i % 89) for i in range(n)], _nop,
                         [()] * n, [None] * n)
    assert sum(map(k.cancel_slot, items[::2])) == n // 2
    assert len(k) == n // 2
    t0 = time.perf_counter()
    assert k.run() == n // 2
    assert time.perf_counter() - t0 < 15.0
    assert len(k) == 0
