"""Tests for the invariant registry: healthy runs pass, broken states fail."""

import pytest

from repro.chaos import (ChaosContext, FaultInjector, FaultSchedule,
                         INVARIANTS, StencilChaosWorkload, check_invariants,
                         invariant, wire_ampi_faults)
from repro.chaos.workloads import FragileReduceWorkload
from repro.core.thread import ThreadState
from repro.errors import InvariantViolation


def healthy_context():
    """A built-but-not-run runtime with an idle injector."""
    rt, _ = FragileReduceWorkload().build()
    injector = FaultInjector(FaultSchedule.scripted([]))
    injector.attach(rt.cluster)
    return ChaosContext(runtime=rt, injector=injector)


def test_healthy_runtime_passes_all_invariants():
    ctx = healthy_context()
    check_invariants(ctx, "inject")
    check_invariants(ctx, "quiescence")


def test_completed_run_passes_at_quiescence():
    rt, check = StencilChaosWorkload().build()
    injector = FaultInjector(FaultSchedule.scripted([]))
    ctx = wire_ampi_faults(rt, injector)
    rt.run()
    check_invariants(ctx, "quiescence")
    assert check(rt)


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValueError):
        @invariant("clock-monotonic")
        def clash(ctx, point):
            return None


def test_custom_invariant_is_consulted():
    @invariant("always-angry")
    def angry(ctx, point):
        return f"no {point} is good enough"
    try:
        with pytest.raises(InvariantViolation, match="always-angry"):
            check_invariants(healthy_context(), "inject")
    finally:
        del INVARIANTS["always-angry"]


def test_violation_names_every_failed_check():
    ctx = healthy_context()
    ctx.last_clocks[0] = 1e18            # clock must appear to run backwards
    ctx.injector.arrivals_scheduled = 7  # ... and conservation must break
    with pytest.raises(InvariantViolation) as e:
        check_invariants(ctx, "inject")
    assert "clock-monotonic" in str(e.value)
    assert "send-arrival-conservation" in str(e.value)


def test_lb_placement_mismatch_is_a_violation():
    ctx = healthy_context()
    rt = ctx.runtime
    rt.db.moved(1, 0)                    # database lies: rank 1 lives on pe1
    with pytest.raises(InvariantViolation, match="lb-placement-consistent"):
        check_invariants(ctx, "inject")


def test_lb_placement_skipped_mid_rebalance():
    ctx = healthy_context()
    rt = ctx.runtime
    rt.db.moved(1, 0)
    rt.rebalance_in_progress = True      # the transactional window
    try:
        for name in ("lb-placement-consistent",):
            assert INVARIANTS[name](ctx, "inject") is None
    finally:
        rt.rebalance_in_progress = False


def test_rank_on_failed_pe_is_a_violation():
    ctx = healthy_context()
    ctx.runtime.cluster[1].failed = True
    with pytest.raises(InvariantViolation, match="no-rank-on-failed-pe"):
        check_invariants(ctx, "inject")


def test_lost_thread_is_a_violation():
    ctx = healthy_context()
    rt = ctx.runtime
    thread = rt.rank_thread[0]
    rt.schedulers[0].threads.pop(thread.tid)   # the rank vanishes
    with pytest.raises(InvariantViolation, match="unique-rank-placement"):
        check_invariants(ctx, "inject")


def test_migrating_is_excused_at_inject_but_not_quiescence():
    ctx = healthy_context()
    thread = ctx.runtime.rank_thread[0]
    saved = thread.state
    thread.state = ThreadState.MIGRATING
    try:
        check_invariants(ctx, "inject")        # in flight: fine
        with pytest.raises(InvariantViolation, match="still MIGRATING"):
            check_invariants(ctx, "quiescence")
    finally:
        thread.state = saved


def test_unexpected_checkpoint_corruption_is_a_violation():
    rt, _ = FragileReduceWorkload().build()
    injector = FaultInjector(FaultSchedule.scripted([]))
    injector.attach(rt.cluster)
    ctx = ChaosContext(runtime=rt, injector=injector)
    thread = rt.rank_thread[0]
    rt.schedulers[0].run()                     # park the threads
    key = rt.checkpointer.checkpoint(thread)
    record = rt.checkpointer.stored(key)
    record.blob = record.blob[:-1] + bytes([record.blob[-1] ^ 0xFF])
    check_invariants(ctx, "inject")            # only audited at the end
    with pytest.raises(InvariantViolation, match="checkpoint-integrity"):
        check_invariants(ctx, "quiescence")
    # A corruption the injector *injected* (and recorded) is expected.
    injector.corrupted_keys.add(key)
    check_invariants(ctx, "quiescence")
    # A slice later the thread's next image retires that one; the audit
    # covers the retained image, the only one a restore can accept.
    rt.schedulers[0].awaken(thread)
    rt.schedulers[0].run()                     # one slice, parked again
    retained = rt.checkpointer.checkpoint(thread)
    assert [r.key for r in rt.checkpointer.records()] == [retained]
    record = rt.checkpointer.stored(retained)
    record.blob = record.blob[:-1] + bytes([record.blob[-1] ^ 0xFF])
    with pytest.raises(InvariantViolation, match=retained):
        check_invariants(ctx, "quiescence")
