"""Tests for the k-slot memory-aliasing extension."""

import pytest

from repro.core import (CthScheduler, MultiSlotAliasStacks, ThreadMigrator)
from repro.core.smp import SmpRunner
from repro.errors import MigrationError, ThreadError
from repro.sim import Cluster, Processor, get_platform

STACK = 8 * 1024


def make_mgr(slots=2, platform="linux_x86"):
    proc = Processor(0, get_platform(platform))
    return proc, MultiSlotAliasStacks(proc.space, proc.profile,
                                      stack_bytes=STACK, slots=slots)


def test_threads_pinned_round_robin():
    proc, mgr = make_mgr(slots=3)
    recs = [mgr.create_stack() for _ in range(6)]
    assert [r.address_class for r in recs] == [0, 1, 2, 0, 1, 2]
    # Distinct slots have distinct addresses; same slot shares one.
    assert recs[0].base != recs[1].base != recs[2].base
    assert recs[0].base == recs[3].base


def test_k_threads_active_simultaneously():
    proc, mgr = make_mgr(slots=2)
    a, b, c = (mgr.create_stack() for _ in range(3))
    mgr.switch_in(a)
    mgr.switch_in(b)                # different slot: fine
    with pytest.raises(ThreadError):
        mgr.switch_in(c)            # same slot as a: refused
    mgr.switch_out(a)
    mgr.switch_in(c)
    mgr.switch_out(b)
    mgr.switch_out(c)


def test_contents_isolated_across_slots():
    proc, mgr = make_mgr(slots=2)
    a, b = mgr.create_stack(), mgr.create_stack()
    mgr.switch_in(a)
    mgr.switch_in(b)
    mgr.stack_write(a, 0, b"slot0")
    mgr.stack_write(b, 0, b"slot1")
    mgr.switch_out(a)
    mgr.switch_out(b)
    assert mgr.stack_read(a, 0, 5) == b"slot0"
    assert mgr.stack_read(b, 0, 5) == b"slot1"


def test_single_slot_equals_paper_technique():
    proc, mgr = make_mgr(slots=1)
    a, b = mgr.create_stack(), mgr.create_stack()
    mgr.switch_in(a)
    with pytest.raises(ThreadError):
        mgr.switch_in(b)


def test_va_cost_is_k_stacks():
    proc, mgr = make_mgr(slots=4)
    alias_maps = [m for m in proc.space.mappings()
                  if m.tag == "alias-stack"]
    assert len(alias_maps) == 4
    assert len({m.start for m in alias_maps}) == 4


def test_slot_overflow_rejected():
    proc = Processor(0, get_platform("linux_x86"))
    with pytest.raises(ThreadError):
        MultiSlotAliasStacks(proc.space, proc.profile,
                             stack_bytes=4 * 1024 * 1024, slots=100)
    with pytest.raises(ThreadError):
        MultiSlotAliasStacks(proc.space, proc.profile, slots=0)


def test_smp_speedup_interpolates():
    """k slots give ~min(k, cores)x throughput — between the paper's
    aliasing (1x) and isomalloc (cores x)."""
    work = [400_000.0] * 16

    def speedup(slots):
        proc, mgr = make_mgr(slots=slots)
        return SmpRunner(proc.profile, mgr, cores=4).run_batch(work).speedup

    s1, s2, s4 = speedup(1), speedup(2), speedup(4)
    assert s1 < 1.05
    assert 1.8 < s2 < 2.2
    assert s4 > 3.5


def test_migration_preserves_slot_pinning():
    cluster = Cluster(2)
    scheds = []
    for pe in range(2):
        mgr = MultiSlotAliasStacks(cluster[pe].space, cluster.platform,
                                   stack_bytes=STACK, slots=2)
        scheds.append(CthScheduler(cluster[pe], mgr))
    mig = ThreadMigrator(cluster, scheds)
    out = []

    def body(th):
        cell = th.alloca(8)
        th.write_word(cell, 0xABCD)
        yield "suspend"
        out.append((th.read_word(cell), th.stack.address_class,
                    th.stack.base))

    # Create two threads so the second lands in slot 1.
    scheds[0].create(lambda th: iter(()))
    t = scheds[0].create(body)
    base_before = t.stack.base
    cls_before = t.stack.address_class
    scheds[0].run()
    mig.migrate(t, 1)
    cluster.run()
    scheds[1].awaken(t)
    scheds[1].run()
    value, cls_after, base_after = out[0]
    assert value == 0xABCD
    assert cls_after == cls_before          # same slot index on arrival
    assert base_after == base_before        # same address => pointers valid


def test_unpack_needs_enough_slots():
    proc0, mgr3 = make_mgr(slots=3)
    recs = [mgr3.create_stack() for _ in range(3)]
    image = mgr3.pack(recs[2])              # pinned to slot 2
    proc1, mgr1 = make_mgr(slots=1)
    with pytest.raises(MigrationError, match="alias slots"):
        mgr1.unpack(image)


def test_create_seeds_a_shared_slot_stack_in_its_home():
    """With swap emulation, a thread created into the slot the creating
    thread runs in gets its register image in its own private home: the
    running thread's live stack, mapped at the common address they
    share, keeps every byte."""
    proc, mgr = make_mgr(slots=2)
    sched = CthScheduler(proc, mgr, emulate_swap=True)
    seen = []

    def body(th):
        top = th.alloca(64)
        th.write(top, b"\xab" * 64)
        sched.create(lambda t: iter(()))            # slot 1
        newcomer = sched.create(lambda t: iter(()))  # slot 0, like ``a``
        assert newcomer.stack.address_class == th.stack.address_class
        seen.append(th.read(top, 64))
        yield "yield"
        seen.append(th.read(top, 64))

    a = sched.create(body)
    assert a.stack.address_class == 0
    sched.run()
    assert seen == [b"\xab" * 64] * 2
