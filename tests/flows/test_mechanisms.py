"""Tests for the four flow-of-control mechanisms and their cost models."""

import pytest

from repro.errors import (ProcessLimitExceeded, ReproError,
                          ThreadLimitExceeded)
from repro.flows import (AmpiThreadFlow, EventObjectFlow, FlowProgram,
                         KernelThreadFlow, MECHANISMS, ProcessFlow,
                         UserThreadFlow)
from repro.flows.limits import probe_limit
from repro.flows.programs import ring_program
from repro.sim import Processor, get_platform


def make_proc(platform="linux_x86"):
    return Processor(0, get_platform(platform))


def test_mechanisms_registry():
    assert set(MECHANISMS) == {"process", "pthread", "cth", "ampi"}


@pytest.mark.parametrize("cls", [ProcessFlow, KernelThreadFlow,
                                 UserThreadFlow, AmpiThreadFlow,
                                 EventObjectFlow])
def test_create_destroy_charges_time(cls):
    p = make_proc()
    mech = cls(p)
    before = p.now
    mech.create_flow()
    mech.create_flow()
    assert p.now > before
    assert mech.n_flows == 2
    mech.destroy_all()
    assert mech.n_flows == 0


def test_process_creation_builds_real_address_spaces():
    p = make_proc()
    m = p.space.mmap(4096, region="data")
    p.space.write(m.start, b"parent-state")
    mech = ProcessFlow(p)
    child = mech.create_flow()          # a process's payload: its space
    assert child.read(m.start, 12) == b"parent-state"
    mech.destroy_all()


def test_process_limit_enforced():
    p = make_proc("ibm_sp")              # limit 100
    mech = ProcessFlow(p)
    with pytest.raises(ProcessLimitExceeded):
        for _ in range(200):
            mech.create_flow()
    assert mech.n_flows == 99            # initial program is process #1
    mech.destroy_all()


def test_pthread_limit_enforced():
    p = make_proc("linux_x86")           # limit 250
    mech = KernelThreadFlow(p)
    with pytest.raises(ThreadLimitExceeded):
        for _ in range(300):
            mech.create_flow()
    assert mech.n_flows == 250
    mech.destroy_all()
    assert p.kernel.kthread_count == 0


def test_uthread_admin_cap_on_ibm_sp():
    p = make_proc("ibm_sp")              # max_uthreads 15000
    mech = UserThreadFlow(p)
    mech.flows = [None] * 15_000         # pretend 15k already exist
    with pytest.raises(ThreadLimitExceeded):
        mech.create_flow()
    assert mech.n_flows == 15_000


def test_ordering_of_switch_costs_linux():
    """Figure 4's shape: event < cth < ampi << pthread < process."""
    p = make_proc("linux_x86")
    n = 100
    costs = {cls.label: cls(p).switch_cost_ns(n)
             for cls in (ProcessFlow, KernelThreadFlow, UserThreadFlow,
                         AmpiThreadFlow, EventObjectFlow)}
    assert costs["event"] < costs["cth"] < costs["ampi"]
    assert costs["ampi"] < costs["pthread"] < costs["process"]
    # Kernel mechanisms are microseconds; user threads sub-microsecond.
    assert costs["process"] > 2_000
    assert costs["cth"] < 1_000


def test_quirk_makes_kernel_flows_artificially_low():
    """Figures 7-8: IBM SP and Alpha ignore repeated sched_yield."""
    for platform in ("ibm_sp", "alpha"):
        p = make_proc(platform)
        proc_cost = ProcessFlow(p).switch_cost_ns(100)
        kth_cost = KernelThreadFlow(p).switch_cost_ns(100)
        cth_cost = UserThreadFlow(p).switch_cost_ns(100)
        assert proc_cost == kth_cost            # both are the no-op cost
        assert proc_cost < cth_cost             # artificially low


def test_switch_cost_grows_with_flows():
    p = make_proc("linux_x86")
    for cls in (ProcessFlow, KernelThreadFlow, UserThreadFlow):
        mech = cls(p)
        assert mech.switch_cost_ns(10_000) > mech.switch_cost_ns(10)


def test_uthread_growth_is_slow():
    """Cth time 'increases slowly': growth saturates, never exceeding the
    cache-penalty ceiling."""
    p = make_proc("linux_x86")
    mech = UserThreadFlow(p)
    base = mech.switch_cost_ns(2)
    huge = mech.switch_cost_ns(100_000)
    assert huge < base + p.profile.cache_penalty_ns * mech.cache_weight
    # Growth from 1k to 100k flows is much less than 2x.
    assert mech.switch_cost_ns(100_000) < 2 * mech.switch_cost_ns(1_000)


def test_yield_benchmark_result():
    p = make_proc("linux_x86")
    mech = UserThreadFlow(p)
    res = mech.run_yield_benchmark(50, rounds=4)
    assert res.mechanism == "cth"
    assert res.n_flows == 50
    assert res.ns_per_switch == pytest.approx(mech.switch_cost_ns(50))
    assert mech.n_flows == 0                     # cleaned up


def test_ampi_uses_real_isomalloc_slots():
    p = make_proc("linux_x86")
    mech = AmpiThreadFlow(p)
    mech.create_flow()
    assert mech.arena.slots_in_use() == 1
    mech.destroy_all()
    assert mech.arena.slots_in_use() == 0


def _ring_that_receives_first(mpi):
    got = yield from mpi.recv(source=(mpi.rank - 1) % mpi.nranks)
    mpi.send((mpi.rank + 1) % mpi.nranks, got)


def _stacks(proc, tag):
    return [m for m in proc.space.mappings() if m.tag.startswith(tag)]


def test_a_failed_world_leaks_no_real_flow():
    """Every rank of the ring waits on its left neighbour, so the world
    drains with all four flows stuck — and the four stacks and their
    touched frames still go back."""
    p = make_proc()
    frames = p.space.physical.frames_in_use
    mech = UserThreadFlow(p)
    program = FlowProgram("stuck-ring", 4, _ring_that_receives_first)
    with pytest.raises(ReproError,
                       match="drained with 4 unfinished flows"):
        mech.run_workload(program)
    assert mech.n_flows == 0
    assert _stacks(p, "cth-stack") == []
    assert p.space.physical.frames_in_use == frames


def test_a_creation_refused_while_populating_leaks_no_real_flow():
    """linux_x86 refuses the 251st pthread: the 250 created before it
    are torn down, their kernel threads exited and stacks unmapped."""
    p = make_proc("linux_x86")           # limit 250
    mech = KernelThreadFlow(p)
    with pytest.raises(ThreadLimitExceeded):
        mech.run_workload(ring_program(300, 1))
    assert mech.n_flows == 0
    assert p.kernel.kthread_count == 0
    assert _stacks(p, "pthread-stack") == []


def test_a_pthread_refused_its_stack_page_leaks_no_kernel_thread():
    """With no pthread limit, memory refuses the 65th stack page: that
    creation's kernel thread is exited along with the 64 torn down."""
    p = Processor(0, get_platform("linux_x86").with_overrides(
        physical_memory_bytes=64 * 4096, max_kthreads=None))
    probe = probe_limit(KernelThreadFlow(p), cap=10_000)
    assert (probe.count, probe.limiting_factor) == (64, "memory")
    assert p.kernel.kthread_count == 0
    assert _stacks(p, "pthread-stack") == []


def test_ampi_costlier_than_cth_on_every_platform():
    for name in ("linux_x86", "mac_g5", "solaris", "ibm_sp", "alpha"):
        p = make_proc(name)
        assert (AmpiThreadFlow(p).switch_cost_ns(64)
                > UserThreadFlow(p).switch_cost_ns(64))


def test_cache_penalty_monotone_and_bounded():
    p = make_proc()
    mech = UserThreadFlow(p)
    prev = 0.0
    for n in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000):
        pen = mech.cache_penalty_ns(n)
        assert pen >= prev
        prev = pen
    ceiling = p.profile.cache_penalty_ns * mech.cache_weight
    assert prev < ceiling
    assert mech.cache_penalty_ns(10**9) > 0.99 * ceiling
