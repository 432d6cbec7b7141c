"""Tests for the isomalloc arena, slots, and heap allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.isomalloc import IsomallocArena, IsomallocSlot
from repro.errors import OutOfVirtualAddressSpace, ThreadError
from repro.sim import Cluster, get_platform
from repro.vm import AddressSpace, PhysicalMemory
from repro.vm.layout import MB


def make_env(num_pes=2, slot_bytes=256 * 1024, word=32):
    profile = get_platform("linux_x86" if word == 32 else "alpha")
    layout = profile.layout()
    arena = IsomallocArena(layout, num_pes, slot_bytes=slot_bytes)
    spaces = [AddressSpace(layout, PhysicalMemory(64 * MB), name=f"pe{i}")
              for i in range(num_pes)]
    return arena, spaces


# -- arena ------------------------------------------------------------------

def test_pe_ranges_disjoint():
    arena, _ = make_env(4)
    ranges = [arena.pe_range(pe) for pe in range(4)]
    for i, (s1, n1) in enumerate(ranges):
        for s2, n2 in ranges[i + 1:]:
            assert s1 + n1 <= s2 or s2 + n2 <= s1


def test_slots_globally_unique():
    arena, _ = make_env(3, slot_bytes=1 * MB)
    seen = set()
    for pe in range(3):
        for _ in range(10):
            base = arena.allocate_slot(pe)
            assert base not in seen
            # No overlap with any other slot.
            for other in seen:
                assert abs(base - other) >= arena.slot_bytes
            seen.add(base)


def test_slot_release_and_reuse():
    arena, _ = make_env(1)
    a = arena.allocate_slot(0)
    arena.release_slot(a)
    b = arena.allocate_slot(0)
    assert b == a                       # freed slot is reused
    with pytest.raises(ThreadError):
        arena.release_slot(0xDEAD000)


def test_arena_exhaustion_32bit():
    """The paper's 32-bit problem: per-PE range / slot size bounds threads."""
    arena, _ = make_env(2, slot_bytes=64 * MB)
    for _ in range(arena.slots_per_pe):
        arena.allocate_slot(0)
    with pytest.raises(OutOfVirtualAddressSpace):
        arena.allocate_slot(0)
    # The other PE's range is untouched.
    arena.allocate_slot(1)


def test_capacity_math():
    """n threads x s bytes x p processors <= iso region (Section 3.4.2)."""
    arena, _ = make_env(4, slot_bytes=1 * MB)
    iso_size = arena.layout.regions["iso"].size
    assert (arena.slots_per_pe * arena.num_pes * arena.slot_bytes
            <= iso_size)


def test_64bit_arena_is_huge():
    profile = get_platform("alpha")
    arena = IsomallocArena(profile.layout(), 1000, slot_bytes=1 * MB)
    # 1000 PEs x 10 threads x 1MB (the paper's 10 GB example) fits easily.
    assert arena.slots_per_pe >= 10


def test_bad_pe_rejected():
    arena, _ = make_env(2)
    with pytest.raises(ThreadError):
        arena.allocate_slot(2)
    with pytest.raises(ThreadError):
        arena.pe_range(-1)


# -- slot + heap --------------------------------------------------------------

def test_slot_layout():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=16 * 1024)
    assert slot.stack_top == slot.base + arena.slot_bytes
    assert slot.stack_base == slot.stack_top - 16 * 1024
    assert slot.contains(slot.base)
    assert slot.contains(slot.stack_top - 1)
    assert not slot.contains(slot.stack_top)
    # Stack is immediately usable.
    spaces[0].write(slot.stack_base, b"stackdata")
    assert spaces[0].read(slot.stack_base, 9) == b"stackdata"


def test_stack_too_big_for_slot():
    arena, spaces = make_env(1, slot_bytes=64 * 1024)
    with pytest.raises(ThreadError):
        IsomallocSlot(arena, spaces[0], 0, stack_bytes=64 * 1024)


def test_malloc_free_roundtrip():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    a = slot.malloc(100)
    spaces[0].write(a, b"x" * 100)
    assert spaces[0].read(a, 100) == b"x" * 100
    assert slot.heap.live_blocks == 1
    slot.free(a)
    assert slot.heap.live_blocks == 0


def test_malloc_headers_in_simulated_memory():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    a = slot.malloc(64)
    assert slot.heap.block_size(a) >= 64
    # Corrupt the header through raw memory: free must detect it.
    spaces[0].write_word(a - 16, 0xBAD)
    with pytest.raises(ThreadError):
        slot.free(a)


def test_double_free_detected():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    a = slot.malloc(64)
    slot.free(a)
    with pytest.raises(ThreadError):
        slot.free(a)


def test_free_foreign_pointer_rejected():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    with pytest.raises(ThreadError):
        slot.free(slot.base + 123456)


def test_free_block_reused():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    a = slot.malloc(256)
    slot.free(a)
    b = slot.malloc(200)           # fits in the freed block
    assert b == a


def test_heap_grows_physical_on_demand():
    arena, spaces = make_env(1, slot_bytes=512 * 1024)
    before = spaces[0].physical.frames_in_use
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    after_stack = spaces[0].physical.frames_in_use
    assert after_stack == before + 2          # stack pages only
    slot.malloc(3 * 4096)
    assert spaces[0].physical.frames_in_use > after_stack
    # Virtual slot is 512K but physical stays proportional to usage.
    assert spaces[0].resident_bytes < 100 * 1024


def test_heap_exhaustion():
    arena, spaces = make_env(1, slot_bytes=64 * 1024)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    with pytest.raises(OutOfVirtualAddressSpace):
        slot.malloc(60 * 1024)


def test_slot_pack_adopt_roundtrip():
    """The core isomalloc property: same addresses on the new processor."""
    arena, spaces = make_env(2)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    a = slot.malloc(64)
    b = slot.malloc(64)
    spaces[0].write_word(a, b)          # heap -> heap pointer
    spaces[0].write_word(b, 777)
    spaces[0].write(slot.stack_base + 100, a.to_bytes(4, "little"))  # stack -> heap
    image = slot.pack()
    slot.evacuate()
    new = IsomallocSlot.adopt(arena, spaces[1], 1, image)
    assert new.base == slot.base
    # Chase the pointer chain on the destination.
    a2 = int.from_bytes(spaces[1].read(new.stack_base + 100, 4), "little")
    assert a2 == a
    b2 = spaces[1].read_word(a2)
    assert b2 == b
    assert spaces[1].read_word(b2) == 777
    # Allocator metadata carried over: freeing and reusing works.
    new.free(a2)
    c = new.malloc(48)
    assert c == a2


def test_evacuate_releases_local_resources():
    arena, spaces = make_env(2)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    slot.malloc(4096)
    image = slot.pack()
    slot.evacuate()
    assert spaces[0].resident_bytes == 0
    # The slot's VA can be re-claimed locally only via adopt (arena still
    # owns the slot), so a fresh local slot gets a different base.
    other = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    assert other.base != slot.base
    # And adoption back onto the source works (round trip).
    back = IsomallocSlot.adopt(arena, spaces[0], 0, image)
    assert back.base == slot.base


def test_destroy_releases_slot():
    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    base = slot.base
    slot.destroy()
    assert arena.slots_in_use() == 0
    again = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    assert again.base == base


# -- property tests ------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=2000), min_size=1,
                max_size=30))
@settings(max_examples=50, deadline=None)
def test_malloc_blocks_never_overlap(sizes):
    arena, spaces = make_env(1, slot_bytes=512 * 1024)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    live = []
    for i, n in enumerate(sizes):
        if live and i % 3 == 2:
            addr, _ = live.pop(i % len(live))
            slot.free(addr)
        a = slot.malloc(n)
        for other, on in live:
            assert a + n <= other or other + on <= a
        live.append((a, n))


@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1,
                max_size=20))
@settings(max_examples=40, deadline=None)
def test_heap_accounting_invariant(sizes):
    arena, spaces = make_env(1, slot_bytes=512 * 1024)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    addrs = [slot.malloc(n) for n in sizes]
    assert slot.heap.live_blocks == len(sizes)
    assert slot.heap.allocated_bytes >= sum(sizes)
    for a in addrs:
        slot.free(a)
    assert slot.heap.live_blocks == 0
    assert slot.heap.allocated_bytes == 0


@given(data=st.binary(min_size=1, max_size=500),
       stack_data=st.binary(min_size=1, max_size=500))
@settings(max_examples=40, deadline=None)
def test_pack_adopt_preserves_all_contents(data, stack_data):
    arena, spaces = make_env(2)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    a = slot.malloc(len(data))
    spaces[0].write(a, data)
    spaces[0].write(slot.stack_base, stack_data)
    image = slot.pack()
    slot.evacuate()
    new = IsomallocSlot.adopt(arena, spaces[1], 1, image)
    assert spaces[1].read(a, len(data)) == data
    assert spaces[1].read(new.stack_base, len(stack_data)) == stack_data


def test_guard_gap_below_stack_faults():
    """The unmapped page between heap and stack catches stack overruns."""
    from repro.errors import SegmentationFault

    arena, spaces = make_env(1)
    slot = IsomallocSlot(arena, spaces[0], 0, stack_bytes=8 * 1024)
    with pytest.raises(SegmentationFault):
        spaces[0].write(slot.stack_base - 8, b"overrun!")
    # The stack itself and the heap both work fine.
    spaces[0].write(slot.stack_base, b"ok")
    a = slot.malloc(64)
    spaces[0].write(a, b"ok")
