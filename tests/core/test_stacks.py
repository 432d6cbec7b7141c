"""Tests for the three migratable stack techniques."""

import pytest

from repro.core.isomalloc import IsomallocArena
from repro.core.stacks import (IsomallocStacks, MemoryAliasStacks,
                               StackCopyStacks, make_stack_manager)
from repro.errors import MigrationError, ThreadError
from repro.sim import get_platform
from repro.vm import AddressSpace, PhysicalMemory
from repro.vm.layout import MB

STACK = 16 * 1024


def make_space(platform="linux_x86"):
    profile = get_platform(platform)
    return profile, AddressSpace(profile.layout(), PhysicalMemory(128 * MB))


def make_manager(technique, platform="linux_x86", pe=0, arena=None, space=None):
    profile, sp = make_space(platform) if space is None else (get_platform(platform), space)
    arena = arena or IsomallocArena(profile.layout(), 2, slot_bytes=256 * 1024)
    return make_stack_manager(technique, sp, profile, STACK, arena, pe), sp


ALL = ["stack_copy", "isomalloc", "memory_alias"]


@pytest.mark.parametrize("technique", ALL)
def test_create_destroy(technique):
    mgr, sp = make_manager(technique)
    rec = mgr.create_stack()
    assert rec.size == STACK
    assert rec.top == rec.base + STACK
    mgr.destroy_stack(rec)


@pytest.mark.parametrize("technique", ALL)
def test_stack_contents_isolated_between_threads(technique):
    """Each thread's stack data is its own, even with one shared address.

    Writes go into the *live* region (below the stack pointer would be
    garbage on a real machine too, so stack copying rightly ignores it).
    """
    mgr, sp = make_manager(technique)
    a, b = mgr.create_stack(), mgr.create_stack()
    a.consume(64)
    b.consume(64)
    off = a.size - 64
    mgr.switch_in(a)
    mgr.stack_write(a, off, b"AAAA")
    mgr.switch_out(a)
    mgr.switch_in(b)
    mgr.stack_write(b, off, b"BBBB")
    mgr.switch_out(b)
    assert mgr.stack_read(a, off, 4) == b"AAAA"
    assert mgr.stack_read(b, off, 4) == b"BBBB"


@pytest.mark.parametrize("technique", ALL)
def test_inactive_stack_readable_writable(technique):
    mgr, sp = make_manager(technique)
    rec = mgr.create_stack()
    rec.consume(256)
    off = rec.size - 200
    mgr.stack_write(rec, off, b"inactive")
    assert mgr.stack_read(rec, off, 8) == b"inactive"
    mgr.switch_in(rec)
    assert mgr.stack_read(rec, off, 8) == b"inactive"
    mgr.switch_out(rec)
    assert mgr.stack_read(rec, off, 8) == b"inactive"


def test_single_address_techniques_share_base():
    for technique in ("stack_copy", "memory_alias"):
        mgr, _ = make_manager(technique)
        a, b = mgr.create_stack(), mgr.create_stack()
        assert a.base == b.base
        assert not mgr.concurrent_active


def test_isomalloc_stacks_have_unique_bases():
    mgr, _ = make_manager("isomalloc")
    a, b = mgr.create_stack(), mgr.create_stack()
    assert a.base != b.base
    assert mgr.concurrent_active


@pytest.mark.parametrize("technique", ["stack_copy", "memory_alias"])
def test_only_one_active(technique):
    mgr, _ = make_manager(technique)
    a, b = mgr.create_stack(), mgr.create_stack()
    mgr.switch_in(a)
    with pytest.raises(ThreadError):
        mgr.switch_in(b)
    with pytest.raises(ThreadError):
        mgr.switch_out(b)
    mgr.switch_out(a)
    mgr.switch_in(b)


def test_stack_copy_cost_scales_with_used_bytes():
    """Figure 9's stack-copy behaviour: cost is linear in live stack data."""
    mgr, _ = make_manager("stack_copy")
    small, big = mgr.create_stack(), mgr.create_stack()
    small.consume(1024)
    big.consume(8 * 1024)
    c_small = mgr.switch_in(small) + mgr.switch_out(small)
    c_big = mgr.switch_in(big) + mgr.switch_out(big)
    assert c_big == pytest.approx(8 * c_small)


def test_isomalloc_cost_flat_in_stack_size():
    """Figure 9's isomalloc behaviour: switches are free of memory work."""
    mgr, _ = make_manager("isomalloc")
    rec = mgr.create_stack()
    rec.consume(8 * 1024)
    assert mgr.switch_in(rec) == 0.0
    assert mgr.switch_out(rec) == 0.0


def test_memory_alias_cost_between_the_two():
    """Figure 9's aliasing behaviour: mmap-class cost, flat in used bytes."""
    profile = get_platform("linux_x86")
    mgr, _ = make_manager("memory_alias")
    a = mgr.create_stack()
    a.consume(8 * 1024)
    cost = mgr.switch_in(a)
    # An mmap-class cost: microseconds, not tens of microseconds.
    assert 1_000 < cost < 10_000
    mgr.switch_out(a)
    b = mgr.create_stack()
    b.consume(1024)
    assert mgr.switch_in(b) == pytest.approx(cost)   # independent of usage


def test_memory_alias_no_copying():
    """Aliasing must not copy stack bytes at a switch."""
    mgr, sp = make_manager("memory_alias")
    a, b = mgr.create_stack(), mgr.create_stack()
    mgr.switch_in(a)
    mgr.stack_write(a, 0, b"A" * 4096)
    mgr.switch_out(a)
    copied_before = sp.bytes_copied
    mgr.switch_in(b)
    mgr.switch_out(b)
    mgr.switch_in(a)
    assert sp.bytes_copied == copied_before         # zero bytes moved
    assert mgr.stack_read(a, 0, 4) == b"AAAA"


def test_stack_copy_requires_fixed_base():
    profile = get_platform("linux_x86").with_overrides(fixed_stack_base=False)
    sp = AddressSpace(profile.layout(), PhysicalMemory(32 * MB))
    with pytest.raises(ThreadError):
        StackCopyStacks(sp, profile, stack_bytes=STACK)


def test_memory_alias_requires_mmap():
    profile = get_platform("bluegene_l").with_overrides(
        microkernel_remap_extension=False)
    sp = AddressSpace(profile.layout(), PhysicalMemory(32 * MB))
    with pytest.raises(ThreadError):
        MemoryAliasStacks(sp, profile, stack_bytes=STACK)


def test_memory_alias_works_with_microkernel_extension():
    """BG/L 'Maybe': the proposed CNK remap extension enables aliasing."""
    profile = get_platform("bluegene_l")
    sp = AddressSpace(profile.layout(), PhysicalMemory(32 * MB))
    mgr = MemoryAliasStacks(sp, profile, stack_bytes=STACK)
    rec = mgr.create_stack()
    mgr.switch_in(rec)
    mgr.stack_write(rec, 0, b"bgl")
    mgr.switch_out(rec)
    assert mgr.stack_read(rec, 0, 3) == b"bgl"


def test_isomalloc_requires_mmap():
    profile = get_platform("bluegene_l")
    sp = AddressSpace(profile.layout(), PhysicalMemory(32 * MB))
    arena = IsomallocArena(profile.layout(), 1)
    with pytest.raises(ThreadError):
        IsomallocStacks(sp, profile, arena, 0, stack_bytes=STACK)


@pytest.mark.parametrize("technique", ALL)
def test_pack_unpack_roundtrip_across_processors(technique):
    """Stack images rebuild with identical thread-visible addresses."""
    profile = get_platform("linux_x86")
    sp0 = AddressSpace(profile.layout(), PhysicalMemory(64 * MB), name="pe0")
    sp1 = AddressSpace(profile.layout(), PhysicalMemory(64 * MB), name="pe1")
    arena = IsomallocArena(profile.layout(), 2, slot_bytes=256 * 1024)
    mgr0, _ = make_manager(technique, arena=arena, space=sp0)
    mgr1, _ = make_manager(technique, pe=1, arena=arena, space=sp1)

    rec = mgr0.create_stack()
    rec.consume(256)
    # Store a pointer into the stack itself — the classic migration hazard.
    self_ptr = rec.top - 128
    mgr0.stack_write(rec, rec.size - 256, self_ptr.to_bytes(4, "little"))
    mgr0.stack_write(rec, self_ptr - rec.base, b"target!!")
    image = mgr0.pack(rec)
    mgr0.evacuate(rec)
    rec2 = mgr1.unpack(image)
    assert rec2.base == rec.base              # same thread-visible address
    assert rec2.used_bytes == 256
    ptr = int.from_bytes(mgr1.stack_read(rec2, rec2.size - 256, 4), "little")
    assert ptr == self_ptr                    # pointer survived byte-for-byte
    assert mgr1.stack_read(rec2, ptr - rec2.base, 8) == b"target!!"


def test_pack_wrong_technique_rejected():
    mgr_a, _ = make_manager("stack_copy")
    mgr_b, _ = make_manager("memory_alias")
    rec = mgr_a.create_stack()
    image = mgr_a.pack(rec)
    with pytest.raises(MigrationError):
        mgr_b.unpack(image)


@pytest.mark.parametrize("technique", ["stack_copy", "memory_alias"])
def test_refused_unpack_leaves_no_half_built_stack(technique):
    """Technique and size are checked before anything is allocated."""
    other = "memory_alias" if technique == "stack_copy" else "stack_copy"
    src, _ = make_manager(other)
    image = src.pack(src.create_stack())
    dst, sp = make_manager(technique)
    wrong_size = dict(dst.pack(dst.create_stack()), size=2 * STACK)
    before = (len(sp.mappings()), sp.physical.frames_in_use)
    for refused in (image, wrong_size):
        with pytest.raises(MigrationError):
            dst.unpack(refused)
    assert (len(sp.mappings()), sp.physical.frames_in_use) == before


@pytest.mark.parametrize("technique", ["stack_copy", "memory_alias"])
def test_cannot_migrate_active_thread(technique):
    mgr, _ = make_manager(technique)
    rec = mgr.create_stack()
    mgr.switch_in(rec)
    with pytest.raises(MigrationError):
        mgr.pack(rec)


def test_stack_overflow_detected():
    mgr, _ = make_manager("isomalloc")
    rec = mgr.create_stack()
    with pytest.raises(ThreadError):
        rec.consume(STACK + 1)


def test_memory_alias_on_windows_equivalent():
    """Table 1's Windows 'Maybe': MapViewOfFileEx is an mmap equivalent,
    so the aliasing mechanism works once implemented."""
    profile = get_platform("windows")
    sp = AddressSpace(profile.layout(), PhysicalMemory(32 * MB))
    mgr = MemoryAliasStacks(sp, profile, stack_bytes=STACK)
    a, b = mgr.create_stack(), mgr.create_stack()
    mgr.switch_in(a)
    mgr.stack_write(a, 0, b"win-a")
    mgr.switch_out(a)
    mgr.switch_in(b)
    mgr.stack_write(b, 0, b"win-b")
    mgr.switch_out(b)
    assert mgr.stack_read(a, 0, 5) == b"win-a"
    assert mgr.stack_read(b, 0, 5) == b"win-b"
