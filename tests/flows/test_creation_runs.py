"""Flows are created and torn down a run at a time; the one-at-a-time
road in ``flowref.py`` is the oracle.

Each scenario plays one list of operations on two fresh processors, one
through the mechanisms' own ``create_flows``/``destroy_all``/
``run_yield_benchmark``/``probe_limit``/``run_workload`` and one through
the reference loops, and compares after every operation: each flow's
payload (stack address, tag and touched frame's index), the address
space's mappings, sorted starts, free intervals and counters, the frame
free list and counts, the isomalloc arena's next and free indices and
owners, the kernel's process and thread counts, the exception a refusal
raised (type and text), and ``float.hex`` of the processor's ``now`` and
``busy_ns``.  The clock is compared after a yield point has made it
fractional, where ``k * ns`` and ``k`` sequential additions differ; the
frames after a teardown is followed by re-creation, where the free
list's order decides which frame each new flow touches.
"""

import pytest

from repro.errors import ReproError
from repro.flows import (AmpiThreadFlow, CompiledContinuationFlow,
                         EventObjectFlow, HybridThreadFlow, KernelThreadFlow,
                         MECHANISMS, ProcessFlow, UserThreadFlow, probe_limit)
from repro.flows.programs import ring_program
from repro.sim import PLATFORMS, Processor, get_platform
from repro.vm import AddressSpace
from tests.flows import flowref

ALL = {**MECHANISMS, "n:m": HybridThreadFlow, "event": EventObjectFlow,
       "compiled": CompiledContinuationFlow}


class RunRoad:
    @staticmethod
    def create(mech, n):
        mech.create_flows(n)

    @staticmethod
    def destroy(mech):
        mech.destroy_all()

    @staticmethod
    def yield_point(mech, n):
        res = mech.run_yield_benchmark(n, rounds=3, keep=True)
        return res.total_ns.hex(), res.ns_per_switch.hex()

    @staticmethod
    def probe(mech, cap):
        probe = probe_limit(mech, cap)
        return probe.count, probe.hit_limit, probe.limiting_factor

    @staticmethod
    def workload(mech, program):
        return mech.run_workload(program).results


class RefRoad:
    @staticmethod
    def create(mech, n):
        for _ in range(n):
            flowref.create_flow(mech)

    destroy = staticmethod(flowref.destroy_all)

    @staticmethod
    def yield_point(mech, n):
        total, per = flowref.run_yield_benchmark(mech, n, keep=True)
        return total.hex(), per.hex()

    probe = staticmethod(flowref.probe_limit)
    workload = staticmethod(flowref.run_workload)


def _payload(payload):
    if isinstance(payload, tuple):
        stack, touched = payload
        return stack.start, stack.length, stack.tag, touched.index
    if isinstance(payload, AddressSpace):
        return payload.name, [(m.start, m.length, m.tag)
                              for m in payload.mappings()]
    return payload


def _state(proc, mechs):
    space, physical = proc.space, proc.physical
    arenas = {key: (list(m.arena._next_index),
                    [list(free) for free in m.arena._free_indices],
                    list(m.arena._owner.items()))
              for key, m in mechs.items() if isinstance(m, AmpiThreadFlow)}
    return (
        {key: [_payload(p) for p in m.flows] for key, m in mechs.items()},
        arenas,
        [(m.start, m.length, m.region, m.tag, m.reserved)
         for m in space.mappings()],
        list(space._starts),
        {name: list(free._intervals) for name, free in space._free.items()},
        (space.mmap_calls, space.munmap_calls, space.pages_mapped,
         space.resident_bytes),
        ([f.index for f in physical._free], len(physical._frames),
         physical.frames_allocated_ever),
        (proc.kernel.process_count, proc.kernel.kthread_count),
        (proc.now.hex(), proc.busy_ns.hex()),
    )


def play(road, profile, mechs, ops):
    """Run ``ops`` — ``(operation, mechanism key, argument...)`` — on a
    fresh processor of ``profile`` with ``mechs`` (key -> constructor);
    returns what each operation returned or raised, and the state after
    it."""
    proc = Processor(0, profile)
    try:
        built = {key: make(proc) for key, make in mechs.items()}
    except ReproError as exc:           # N:M where no kernel thread may be
        return [(type(exc).__name__, str(exc))]
    trail = []
    for op, key, *args in ops:
        try:
            outcome = getattr(road, op)(built[key], *args)
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
        trail.append((op, key, *args, outcome, _state(proc, built)))
    return trail


def assert_same(profile, mechs, ops):
    run = play(RunRoad, profile, mechs, ops)
    ref = play(RefRoad, profile, mechs, ops)
    assert len(run) == len(ref)
    for got, want in zip(run, ref):
        assert got == want, got[:-1]


#: A Figure 4 grid grown with ``keep`` (each point a run on top of the
#: last), a teardown, a re-creation that reuses slots and frames, and a
#: Table 2 probe: a pthread, process or AMPI slot limit inside it on
#: some platforms.
EVERYDAY = [("yield_point", "m", 1), ("yield_point", "m", 3),
            ("yield_point", "m", 40), ("yield_point", "m", 130),
            ("destroy", "m"), ("create", "m", 57), ("create", "m", 0),
            ("create", "m", -3), ("destroy", "m"), ("probe", "m", 300)]


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("mechanism", sorted(ALL))
def test_every_mechanism_on_every_platform(mechanism, platform):
    assert_same(get_platform(platform), {"m": ALL[mechanism]}, EVERYDAY)


def _ampi(slot_bytes):
    return lambda proc: AmpiThreadFlow(proc, slot_bytes=slot_bytes)


def test_the_ibm_sp_cth_cap_refuses_the_15001st_flow():
    assert_same(get_platform("ibm_sp"), {"m": UserThreadFlow},
                [("create", "m", 14_990), ("create", "m", 11),
                 ("create", "m", 1), ("destroy", "m"),
                 ("probe", "m", 20_000)])


def test_linux_ampi_runs_out_of_64_kb_slots_at_40_448():
    ops = [("create", "m", 40_000), ("create", "m", 500), ("destroy", "m")]
    run = play(RunRoad, get_platform("linux_x86"), {"m": _ampi(64 * 1024)},
               ops)
    assert run[1][3] == ("OutOfVirtualAddressSpace",
                         "processor 0 exhausted its isomalloc range "
                         "(40448 slots of 65536 bytes)")
    assert run == play(RefRoad, get_platform("linux_x86"),
                       {"m": _ampi(64 * 1024)}, ops)


@pytest.mark.parametrize("platform,mechanism,cap", [
    ("linux_x86", KernelThreadFlow, 1_000),
    ("ibm_sp", ProcessFlow, 1_000),
    ("mac_g5", KernelThreadFlow, 5_000),
])
def test_kernel_limits_refuse_where_they_did(platform, mechanism, cap):
    assert_same(get_platform(platform), {"m": mechanism},
                [("create", "m", cap), ("destroy", "m"),
                 ("probe", "m", cap)])


#: Physical memory of 64 pages: each thread flow touches one, so the
#: 65th flow's page is refused after its stack was reserved; or two
#: limits meet at the same flow, and the first one checked refuses it.
TINY = get_platform("linux_x86").with_overrides(
    physical_memory_bytes=64 * 4096)
#: linux_x86's isomalloc region, where thread stacks are reserved.
ISO_BYTES = get_platform("linux_x86").layout().regions["iso"].size


def _stacks_of(mechanism, nbytes):
    """``mechanism`` with ``nbytes`` stacks: few enough fit the region
    that first fit refuses a stack's address range."""
    def make(proc):
        mech = mechanism(proc)
        mech.stack_bytes = nbytes
        return mech
    return make


@pytest.mark.parametrize("profile,make", [
    (TINY, UserThreadFlow),
    (TINY, _ampi(64 * 1024)),
    (TINY, KernelThreadFlow),
    (TINY, HybridThreadFlow),
    (TINY.with_overrides(max_uthreads=64), UserThreadFlow),
    (TINY.with_overrides(max_uthreads=64), _ampi(64 * 1024)),
    (TINY.with_overrides(max_kthreads=64), KernelThreadFlow),
    # 64 slots of this size fit the isomalloc region.
    (TINY, _ampi(ISO_BYTES // 64)),
    # 39 stacks of this size fit the region, fewer than the pages...
    (TINY, _stacks_of(UserThreadFlow, ISO_BYTES // 40 + 3 * 4096)),
    (TINY, _stacks_of(KernelThreadFlow, ISO_BYTES // 40 + 3 * 4096)),
    # ... and 64 of this one, as many as there are pages: the 65th
    # stack's address range is refused before its page.
    (TINY, _stacks_of(UserThreadFlow, ISO_BYTES // 64)),
], ids=["cth", "ampi", "pthread", "n:m", "cth-cap", "ampi-cap",
        "pthread-limit", "ampi-slots", "cth-va", "pthread-va",
        "cth-va-meets-pages"])
def test_physical_memory_refuses_where_it_did(profile, make):
    assert_same(profile, {"m": make},
                [("create", "m", 10), ("yield_point", "m", 40),
                 ("create", "m", 100), ("create", "m", 5),
                 ("destroy", "m"), ("probe", "m", 1_000),
                 ("create", "m", 64), ("create", "m", 1)])


@pytest.mark.parametrize("make", [UserThreadFlow, _ampi(32 * 1024),
                                  CompiledContinuationFlow],
                         ids=["cth", "ampi", "compiled"])
def test_figure_4_grid_grows_a_run_per_point(make):
    assert_same(get_platform("linux_x86"), {"m": make},
                [("yield_point", "m", n)
                 for n in (2, 8, 32, 128, 512, 2000)] + [("destroy", "m")])


#: Creation costs with low-order mantissa bits, so that each of a run's
#: additions to the clock rounds: ``k * ns`` in one addition reads other
#: bits than ``k`` additions of ``ns``.
FRACTIONAL = get_platform("linux_x86").with_overrides(
    uthread_create_ns=2_500.1, ampi_overhead_ns=0.7, event_dispatch_ns=120.3)


@pytest.mark.parametrize("key", ["cth", "ampi", "compiled"])
def test_a_run_charges_each_flow_its_own_addition(key):
    assert_same(FRACTIONAL, {"m": ALL[key]},
                [("create", "m", 1_000), ("yield_point", "m", 1_500),
                 ("destroy", "m"), ("create", "m", 700)])


def test_recreation_after_a_partial_teardown_reuses_holes_and_frames():
    """Two Cth populations share a processor: tearing one down leaves a
    hole in the stack region and its frames on the free list, and the
    next run fills the hole first fit and touches the frames last freed
    first."""
    assert_same(get_platform("linux_x86"),
                {"a": UserThreadFlow, "b": UserThreadFlow},
                [("create", "a", 100), ("create", "b", 50),
                 ("yield_point", "a", 120), ("destroy", "a"),
                 ("create", "b", 180), ("create", "a", 70),
                 ("destroy", "b"), ("create", "a", 120), ("destroy", "a")])


def test_ampi_reuses_slots_and_frames_last_freed_first():
    assert_same(get_platform("linux_x86"),
                {"ampi": _ampi(64 * 1024), "cth": UserThreadFlow},
                [("create", "ampi", 60), ("create", "cth", 40),
                 ("destroy", "ampi"), ("create", "ampi", 45),
                 ("destroy", "cth"), ("create", "ampi", 30),
                 ("destroy", "ampi")])


@pytest.mark.parametrize("key", ["cth", "n:m", "compiled"])
def test_a_workload_creates_its_ranks_as_one_run(key):
    assert_same(get_platform("linux_x86"), {"m": ALL[key]},
                [("workload", "m", ring_program(12, 2)),
                 ("create", "m", 5),
                 ("workload", "m", ring_program(9, 1))])


def test_a_refused_workload_tears_down_what_it_created():
    assert_same(get_platform("linux_x86"), {"m": KernelThreadFlow},
                [("workload", "m", ring_program(300, 1))])
