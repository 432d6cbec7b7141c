"""Tests for SMP execution of the three stack techniques."""

import pytest

from repro.core.isomalloc import IsomallocArena
from repro.core.smp import SmpRunner
from repro.core.stacks import make_stack_manager
from repro.errors import SchedulerError
from repro.sim import Processor, get_platform

WORK = [500_000.0] * 8        # eight half-millisecond items


def make_runner(technique, cores=2):
    proc = Processor(0, get_platform("linux_x86"))
    profile = proc.profile
    arena = IsomallocArena(proc.layout, 1, slot_bytes=128 * 1024)
    mgr = make_stack_manager(technique, proc.space, profile, 8 * 1024, arena)
    return SmpRunner(profile, mgr, cores=cores)


def test_isomalloc_scales_with_cores():
    """The paper: isomalloc 'allows the straightforward exploitation of
    SMP machines'."""
    r2 = make_runner("isomalloc", cores=2).run_batch(WORK)
    r4 = make_runner("isomalloc", cores=4).run_batch(WORK)
    assert r2.speedup > 1.8
    assert r4.speedup > 3.5
    assert r4.makespan_ns < r2.makespan_ns


@pytest.mark.parametrize("technique", ["stack_copy", "memory_alias"])
def test_single_address_techniques_serialize(technique):
    """'A machine with two physical processors can not run two
    stack-copying threads from the same address space simultaneously'."""
    r = make_runner(technique, cores=4).run_batch(WORK)
    assert r.speedup < 1.05               # no parallelism, just overhead
    assert r.makespan_ns >= r.total_work_ns


def test_isomalloc_beats_single_address_on_smp():
    iso = make_runner("isomalloc", cores=2).run_batch(WORK)
    copy = make_runner("stack_copy", cores=2).run_batch(WORK)
    alias = make_runner("memory_alias", cores=2).run_batch(WORK)
    assert iso.makespan_ns < copy.makespan_ns / 1.8
    assert iso.makespan_ns < alias.makespan_ns / 1.8


def test_one_core_equalizes():
    """On a uniprocessor the SMP constraint is moot: all techniques take
    ~the work plus their per-switch cost."""
    iso = make_runner("isomalloc", cores=1).run_batch(WORK)
    alias = make_runner("memory_alias", cores=1).run_batch(WORK)
    assert iso.makespan_ns >= iso.total_work_ns
    # Aliasing pays a remap per item; isomalloc only register swaps.
    assert alias.makespan_ns > iso.makespan_ns
    assert alias.makespan_ns < iso.makespan_ns * 1.1


def test_uneven_work_list_scheduling():
    runner = make_runner("isomalloc", cores=2)
    res = runner.run_batch([1_000_000.0, 250_000.0, 250_000.0, 250_000.0,
                            250_000.0])
    # Optimal split: 1 ms on one core, 4 x 0.25 ms on the other.
    assert res.makespan_ns < 1.2 * 1_000_000.0


def test_bad_core_count():
    with pytest.raises(SchedulerError):
        make_runner("isomalloc", cores=0)


def test_result_fields():
    res = make_runner("isomalloc", cores=2).run_batch([1000.0, 2000.0])
    assert res.items == 2
    assert res.technique == "isomalloc"
    assert res.total_work_ns == 3000.0
