"""Tier-1 scale pin: 10⁵ compiled flows drain on one PE, allocation-flat.

``results/flows_scale.md`` documents the 10⁶-flow sweep; CI cannot
afford that, but it *can* afford the claim one decade down, which
already separates compiled continuations from every stack-based
mechanism in Table 2 (pthread dies at 250, cth at ~160k of address
space).  Two structural claims, mirroring ``tests/kernel/test_scale.py``:

* 100k compiled flows run to completion well inside a generous
  wall-clock ceiling (~1.2s measured, 60s allowed so a loaded CI
  container cannot flake it);
* steady-state allocation is O(1) per flow and O(0) per *event*:
  holding the flow count fixed while tripling the event count must not
  grow the drain's net traced memory — frames are allocated at spawn,
  and a dispatch re-touches them without leaving per-event residue.
"""

import gc
import time
import tracemalloc

from repro.flows import CompiledContinuationFlow
from repro.flows.programs import spin_program
from repro.flows.runtime import FlowWorld
from repro.sim import Processor, get_platform


def test_100k_compiled_flows_drain_in_tier1():
    flows, rounds = 100_000, 2
    mech = CompiledContinuationFlow(Processor(0, get_platform("linux_x86")))
    program = spin_program(flows, rounds)
    t0 = time.perf_counter()
    run = mech.run_workload(program, real_flows=True)
    wall = time.perf_counter() - t0
    assert len(run.results) == flows
    # One dispatch to seed each flow, one per yield round; the exit
    # directive finishes inside the last dispatch.
    assert run.dispatches == flows * (rounds + 1)
    assert run.kernel_events == run.dispatches
    assert run.mechanism == "compiled"
    assert mech.n_flows == 0                     # cleaned up
    assert wall < 60.0, f"100k-flow drain took {wall:.2f}s"


def _traced_drain(flows, rounds):
    """Spawn compiled flows, then measure the drain alone."""
    program = spin_program(flows, rounds)
    world = FlowWorld(flows)
    world.spawn("compiled", program)
    world.seed()
    gc.collect()
    tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    snap0 = tracemalloc.take_snapshot()
    processed = world.run()
    snap1 = tracemalloc.take_snapshot()
    gc.collect()
    after, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert processed == flows * (rounds + 1)
    assert world.finished == flows
    kernel_stats = [s for s in snap1.compare_to(snap0, "filename")
                    if "event.py" in (s.traceback[0].filename or "")]
    return after - before, sum(s.count_diff for s in kernel_stats)


def test_drain_allocation_is_per_flow_not_per_event():
    flows = 50_000
    net_short, kernel_short = _traced_drain(flows, rounds=2)
    net_long, kernel_long = _traced_drain(flows, rounds=6)
    # Per-flow residue (the results dict, filled during the drain) is
    # bounded and small.
    assert net_short < flows * 1024, net_short
    # Tripling the event count (150k -> 350k dispatches) must not grow
    # the residue: events are transient, frames pre-exist.  100k extra
    # anythings would be megabytes; allow 1MB of host noise.
    assert net_long - net_short < 1024 * 1024, (net_short, net_long)
    # And the kernel itself leaves no per-event blocks behind in
    # either run (same invariant the kernel-level scale test pins).
    assert kernel_short < 100 and kernel_long < 100, (kernel_short,
                                                     kernel_long)
