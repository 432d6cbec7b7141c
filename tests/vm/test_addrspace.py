"""Unit tests for simulated address spaces."""

import pytest

from repro.errors import (
    MapError,
    OutOfVirtualAddressSpace,
    PageFault,
    ProtectionFault,
    SegmentationFault,
    VMError,
)
from repro.vm import AddressSpace, AddressSpaceLayout, PhysicalMemory, Protection
from repro.vm.layout import MB


@pytest.fixture()
def space():
    pm = PhysicalMemory(64 * MB)
    return AddressSpace(AddressSpaceLayout.small32(), pm, name="test")


def test_mmap_read_write_roundtrip(space):
    m = space.mmap(8192, tag="buf")
    space.write(m.start, b"hello world")
    assert space.read(m.start, 11) == b"hello world"
    assert space.resident_bytes == 8192


def test_mmap_rounds_to_pages(space):
    m = space.mmap(1)
    assert m.length == 4096


def test_cross_page_read_write(space):
    m = space.mmap(8192)
    payload = bytes(range(256)) * 40            # 10240 > one page? No: 10240 > 8192
    payload = payload[:8000]
    space.write(m.start + 100, payload)
    assert space.read(m.start + 100, len(payload)) == payload


def test_word_roundtrip_32bit(space):
    m = space.mmap(4096)
    space.write_word(m.start + 8, 0xDEADBEEF)
    assert space.read_word(m.start + 8) == 0xDEADBEEF
    assert space.read(m.start + 8, 4) == bytes.fromhex("efbeadde")  # little endian


def test_word_roundtrip_64bit():
    pm = PhysicalMemory(64 * MB)
    sp = AddressSpace(AddressSpaceLayout.large64(), pm)
    m = sp.mmap(4096)
    sp.write_word(m.start, 2**63 + 12345)
    assert sp.read_word(m.start) == 2**63 + 12345


@pytest.mark.parametrize("mapped", [False, True])
def test_read_refuses_a_negative_length(space, mapped):
    address = space.mmap(4096).start if mapped else 0x5000_0000
    with pytest.raises(VMError, match=f"-5 at {address:#x}"):
        space.read(address, -5)
    assert space.bytes_read == 0


def test_unmapped_access_segfaults(space):
    with pytest.raises(SegmentationFault):
        space.read(0x5000_0000, 4)
    with pytest.raises(SegmentationFault):
        space.write(0x5000_0000, b"x")


def test_reserved_access_pagefaults(space):
    m = space.mmap(4096, reserve_only=True, region="iso")
    with pytest.raises(PageFault):
        space.read(m.start, 1)
    assert space.page_faults == 1


def test_protection_enforced(space):
    m = space.mmap(4096, prot=Protection.READ)
    space.read(m.start, 4)
    with pytest.raises(ProtectionFault):
        space.write(m.start, b"x")


def test_fixed_address_mmap(space):
    iso = space.layout.regions["iso"]
    m = space.mmap(4096, addr=iso.start + 0x10000)
    assert m.start == iso.start + 0x10000
    # Same fixed range cannot be mapped twice.
    with pytest.raises(MapError):
        space.mmap(4096, addr=iso.start + 0x10000)


def test_fixed_mmap_must_be_aligned(space):
    with pytest.raises(MapError):
        space.mmap(4096, addr=space.layout.regions["iso"].start + 1)


def test_munmap_releases_va_and_frames(space):
    before_free = space.region_free_bytes("heap")
    m = space.mmap(16384)
    assert space.region_free_bytes("heap") == before_free - 16384
    space.munmap(m)
    assert space.region_free_bytes("heap") == before_free
    assert space.resident_bytes == 0
    with pytest.raises(SegmentationFault):
        space.read(m.start, 1)


def test_munmap_twice_rejected(space):
    m = space.mmap(4096)
    space.munmap(m)
    with pytest.raises(MapError):
        space.munmap(m)


def test_va_exhaustion():
    """A tiny heap region runs out of virtual addresses even with free RAM."""
    pm = PhysicalMemory(64 * MB)
    lay = AddressSpaceLayout.small32()
    sp = AddressSpace(lay, pm)
    heap = lay.regions["heap"]
    with pytest.raises(OutOfVirtualAddressSpace):
        sp.mmap(heap.size + 4096, region="heap")


def test_reserve_only_consumes_va_not_frames(space):
    m = space.mmap(1 * MB, reserve_only=True, region="iso")
    assert space.mapped_bytes == 1 * MB
    assert space.resident_bytes == 0
    assert space.physical.frames_in_use == 0
    assert m.reserved


def test_attach_detach_frames(space):
    m = space.mmap(8192, reserve_only=True, region="iso")
    frames = space.physical.allocate_frames(2)
    frames[0].write(0, b"migrated!")
    space.attach_frames(m, frames)
    assert space.read(m.start, 9) == b"migrated!"
    assert not m.reserved
    out = space.detach_frames(m)
    assert out == frames
    assert m.reserved
    with pytest.raises(PageFault):
        space.read(m.start, 1)


def test_attach_wrong_count_rejected(space):
    m = space.mmap(8192, reserve_only=True, region="iso")
    with pytest.raises(MapError):
        space.attach_frames(m, space.physical.allocate_frames(1))


def test_remap_frames_aliasing(space):
    """The memory-aliasing switch: same VA, different physical pages."""
    m = space.mmap(8192, tag="common-stack", region="stack")
    space.write(m.start, b"thread-A")
    frames_b = space.physical.allocate_frames(2)
    frames_b[0].write(0, b"thread-B")
    frames_a = space.remap_frames(m, frames_b)
    assert space.read(m.start, 8) == b"thread-B"
    # Thread A's data survived, un-copied, in its own frames.
    assert frames_a[0].read(0, 8) == b"thread-A"
    # Switch back.
    space.remap_frames(m, frames_a)
    assert space.read(m.start, 8) == b"thread-A"


def test_mapping_at_and_mappings(space):
    m1 = space.mmap(4096, tag="a")
    m2 = space.mmap(4096, tag="b")
    assert space.mapping_at(m1.start + 10) is m1
    assert space.mapping_at(m2.start) is m2
    assert space.mapping_at(0x7000_0000) is None
    assert {m.tag for m in space.mappings()} == {"a", "b"}


def test_fork_copy_isolates_memory(space):
    m = space.mmap(4096, tag="globals", region="data")
    space.write(m.start, b"parent")
    child = space.fork_copy("child")
    assert child.read(m.start, 6) == b"parent"
    child.write(m.start, b"child!")
    # Parent unaffected: full separation of state (paper Section 2.1).
    assert space.read(m.start, 6) == b"parent"
    assert child.read(m.start, 6) == b"child!"


def test_fork_copy_preserves_reservations(space):
    m = space.mmap(8192, reserve_only=True, region="iso")
    child = space.fork_copy("child")
    with pytest.raises(PageFault):
        child.read(m.start, 1)


def test_counters(space):
    m = space.mmap(4096)
    space.write(m.start, b"abcd")
    space.read(m.start, 4)
    space.memcpy_in(m.start + 100, m.start, 4)
    assert space.mmap_calls == 1
    assert space.bytes_written >= 4
    assert space.bytes_read >= 4
    assert space.bytes_copied == 4
    space.munmap(m)
    assert space.munmap_calls == 1


def test_memset(space):
    m = space.mmap(4096)
    space.memset(m.start, 0xAB, 16)
    assert space.read(m.start, 16) == b"\xab" * 16


def test_page_size_mismatch_rejected():
    pm = PhysicalMemory(1 * MB, page_size=8192)
    with pytest.raises(Exception):
        AddressSpace(AddressSpaceLayout.small32(page_size=4096), pm)


def test_mprotect_changes_page_rights(space):
    m = space.mmap(8192)
    space.write(m.start, b"rw-data")
    space.mprotect(m, Protection.READ)
    assert space.read(m.start, 7) == b"rw-data"
    with pytest.raises(ProtectionFault):
        space.write(m.start + 4096, b"x")      # every page affected
    space.mprotect(m, Protection.RW)
    space.write(m.start, b"ok")


def test_mprotect_unknown_mapping_rejected(space):
    m = space.mmap(4096)
    space.munmap(m)
    with pytest.raises(MapError):
        space.mprotect(m, Protection.READ)
