"""Failure-path tests for load balancing: aborts, bounces, honest databases."""

from repro.ampi import AmpiRuntime
from repro.balance.instrument import LBDatabase
from repro.balance.manager import LBManager
from repro.chaos import (FaultEvent, FaultInjector, FaultSchedule,
                         check_invariants, wire_ampi_faults)


class PinRank:
    """A test strategy that moves exactly one object, deterministically."""

    name = "pin-rank"

    def __init__(self, obj, dst):
        self.obj = obj
        self.dst = dst

    def map_objects(self, loads, current, npes, *, speeds=None, comm=None):
        out = dict(current)
        out[self.obj] = self.dst
        return out


# -- LBManager plans; the runtime migrates ------------------------------------

class MoveEverythingToZero:
    name = "all-to-zero"

    def map_objects(self, loads, current, npes, *, speeds=None, comm=None):
        return {obj: 0 for obj in loads}


def test_plan_is_recorded_and_returned_in_sorted_order():
    """The manager moves nothing: it returns the changed (obj, dst)
    pairs sorted by object key, and has recorded each in the database
    before the window closes — so the report's imbalance is the planned
    placement's.  Objects already in place are not in the plan."""
    db = LBDatabase(2)
    for obj, pe in [("c", 1), ("a", 1), ("z", 0), ("b", 1)]:
        db.register(obj, pe)
        db.record(obj, 10.0)

    report, plan = LBManager(db, MoveEverythingToZero()).rebalance()
    assert plan == [("a", 0), ("b", 0), ("c", 0)]
    assert report.migrations == 3
    assert db.placement() == {"a": 0, "b": 0, "c": 0, "z": 0}
    assert report.imbalance_after == 2.0       # everything on pe0
    assert db.loads() == {"a": 0.0, "b": 0.0, "c": 0.0, "z": 0.0}


# -- the AMPI runtime's abort-and-retry protocol -----------------------------

def run_migrating_runtime(events):
    """A 4-rank run whose rebalance moves exactly rank 2 from pe0 to pe1,
    under a scripted fault schedule.  Returns (rt, injector, placements)."""
    placements = {}

    def main(mpi):
        mpi.charge(10_000.0 * (mpi.rank + 1))
        yield from mpi.migrate()
        placements[mpi.rank] = mpi.my_pe
        yield from mpi.barrier()

    rt = AmpiRuntime(2, 4, main, strategy=PinRank(2, 1),
                     slot_bytes=128 * 1024, stack_bytes=8 * 1024)
    injector = FaultInjector(FaultSchedule.scripted(events))
    ctx = wire_ampi_faults(rt, injector)
    rt.run()
    check_invariants(ctx, "quiescence")
    return rt, injector, placements


def test_clean_rebalance_moves_the_rank():
    rt, injector, placements = run_migrating_runtime([])
    assert placements == {0: 0, 1: 1, 2: 1, 3: 1}
    assert rt.migrations_abandoned == 0
    assert rt.reports[0].migrations == 1


def test_single_abort_is_retried_transparently():
    rt, injector, placements = run_migrating_runtime(
        [FaultEvent("migrate", 0, "abort")])
    assert placements[2] == 1                  # the retry landed the move
    assert injector.counters["migrations_vetoed"] == 1
    assert rt.migrations_abandoned == 0


def test_double_abort_abandons_the_move_honestly():
    """Both attempts vetoed: the rank stays home and the database is told
    the truth, even though the manager had recorded the planned move."""
    rt, injector, placements = run_migrating_runtime(
        [FaultEvent("migrate", 0, "abort"),
         FaultEvent("migrate", 1, "abort")])
    assert placements[2] == 0                  # never left pe0
    assert injector.counters["migrations_vetoed"] == 2
    assert rt.migrations_abandoned == 1
    # The report reflects the *decision* (deferred execution model); the
    # runtime's abandon counter records what actually failed after it.
    assert rt.reports[0].migrations == 1


def test_bounced_migration_returns_home_and_database_follows():
    """Crash-during-migration: the destination refuses the in-flight image,
    it ships back, and the arrival callback re-syncs the database."""
    rt, injector, placements = run_migrating_runtime(
        [FaultEvent("mig_delivery", 0, "bounce")])
    assert placements[2] == 0                  # bounced back to the source
    assert injector.counters["migrations_bounced"] == 1
    assert rt.migrator.migrations_bounced == 1
    # Truth-telling accounting: the bounce-home rebuild is *returned*,
    # not completed, and the thread's own odometer stays at zero — it
    # never actually changed processors.
    assert rt.migrator.migrations_returned == 1
    assert rt.migrator.migrations_completed == 0
    assert rt.rank_thread[2].migrations == 0
    assert rt.done


def test_migration_to_failed_pe_is_abandoned_not_lost():
    """A destination that fail-stopped before the rebalance: both migrate
    attempts abort on the dead processor and the rank stays home."""
    placements = {}

    def main(mpi):
        mpi.charge(10_000.0 * (mpi.rank + 1))
        yield from mpi.migrate()
        placements[mpi.rank] = mpi.my_pe

    rt = AmpiRuntime(3, 3, main, strategy=PinRank(0, 2),
                     placement=lambda r: r % 2,   # nobody starts on pe2
                     slot_bytes=128 * 1024, stack_bytes=8 * 1024)
    rt.cluster[2].failed = True
    rt.run()
    assert placements[0] == 0
    assert rt.migrations_abandoned == 1
    assert rt.migrator.migrations_aborted == 2
    assert rt.done
