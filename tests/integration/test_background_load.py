"""Integration test: adapting to external load on workstation clusters.

Paper reference [10] (Brunner & Kalé): on a cluster of workstations, a
node busy with someone else's job should shed migratable work.  Our
measurement-based balancer gets this for free — work on a loaded processor
takes proportionally longer, so the measured loads drive migration away.
"""

import pytest

from repro.ampi import AmpiRuntime
from repro.balance import GreedyLB, NullLB
from repro.errors import ReproError
from repro.sim import Cluster, Processor, get_platform


def test_background_load_slows_work():
    p = Processor(0, get_platform("linux_x86"))
    p.charge(1000.0)
    assert p.now == 1000.0
    p.background_load = 0.5
    p.charge(1000.0)                 # takes twice as long
    assert p.now == 3000.0


def test_bad_background_load_rejected():
    p = Processor(0, get_platform("linux_x86"))
    p.background_load = 1.5
    with pytest.raises(ReproError):
        p.charge(1.0)


def make_world(strategy, load=0.75):
    """Equal-work ranks; processor 0 is heavily loaded by external jobs."""
    cluster = Cluster(4)
    cluster[0].background_load = load

    def main(mpi):
        for _ in range(4):
            mpi.charge(500_000.0)
            yield from mpi.migrate()

    rt = AmpiRuntime(cluster, 16, main, strategy=strategy)
    rt.run()
    return rt


def test_lb_migrates_away_from_loaded_workstation():
    rt = make_world(GreedyLB())
    # Ranks observed on PE0 looked ~4x heavier, so GreedyLB placed fewer
    # of them there.
    placement = rt.pe_of_ranks()
    on_loaded = sum(1 for pe in placement if pe == 0)
    assert on_loaded < 16 / 4                 # fewer than the fair share
    assert rt.migrator.migrations_completed > 0


def test_lb_improves_makespan_under_external_load():
    slow = make_world(NullLB())
    fast = make_world(GreedyLB())
    assert fast.makespan_ns < slow.makespan_ns
    # With no external load there is nothing to gain.
    even_null = AmpiRuntime(4, 16, lambda mpi: iter(()), strategy=NullLB())
    even_null.run()


def test_refinelb_sheds_loaded_workstation_with_few_moves():
    from repro.balance import RefineLB

    rt = make_world(RefineLB(tolerance=1.1))
    placement = rt.pe_of_ranks()
    on_loaded = sum(1 for pe in placement if pe == 0)
    assert on_loaded < 16 / 4
    # Refine moves less than Greedy would (it keeps the placement).
    greedy = make_world(GreedyLB())
    assert (rt.migrator.migrations_completed
            <= greedy.migrator.migrations_completed)


def test_refinelb_speed_aware_unit():
    from repro.balance import RefineLB

    loads = {i: 10.0 for i in range(8)}
    current = {i: i % 2 for i in range(8)}     # 4 objects per PE
    out = RefineLB(tolerance=1.05).map_objects(
        loads, current, 2, speeds=[0.25, 1.0])  # PE0 is quarter speed
    per_pe = [sum(loads[o] for o, p in out.items() if p == pe)
              for pe in range(2)]
    # Finish-time balance: PE0 should end with ~1/5 of the work.
    assert per_pe[0] < per_pe[1]
    assert per_pe[0] <= 20.0
