"""Unit tests for address-space layouts and regions."""

import pytest

from repro.errors import VMError
from repro.vm import AddressSpaceLayout, Region
from repro.vm.layout import GB, MB, TB


def test_region_basics():
    r = Region("heap", 0x1000, 0x2000)
    assert r.end == 0x3000
    assert r.contains(0x1000)
    assert r.contains(0x2FFF)
    assert not r.contains(0x3000)
    assert not r.contains(0xFFF)


def test_region_overlap():
    a = Region("a", 0x1000, 0x1000)
    b = Region("b", 0x1800, 0x1000)
    c = Region("c", 0x2000, 0x1000)
    assert a.overlaps(b)
    assert not a.overlaps(c)
    assert b.overlaps(c)


def test_small32_required_regions_present():
    lay = AddressSpaceLayout.small32()
    for name in ("text", "data", "heap", "iso", "stack"):
        assert name in lay.regions
    assert lay.word_bits == 32
    assert lay.word_bytes == 4


def test_small32_iso_region_is_largest():
    """The paper: 'normally the largest space available lies between the
    process stack and the heap' — the iso region dominates the 32-bit map."""
    lay = AddressSpaceLayout.small32()
    iso = lay.regions["iso"]
    assert all(iso.size >= r.size for r in lay.regions.values())
    assert iso.size > 2 * GB
    assert iso.size < 4 * GB


def test_large64_iso_region_terabytes():
    lay = AddressSpaceLayout.large64()
    assert lay.regions["iso"].size >= 16 * TB
    assert lay.word_bytes == 8


def test_page_helpers():
    lay = AddressSpaceLayout.small32()
    assert lay.page_of(0) == 0
    assert lay.page_of(4095) == 0
    assert lay.page_of(4096) == 1
    assert lay.page_base(4097) == 4096
    assert lay.page_align_up(1) == 4096
    assert lay.page_align_up(4096) == 4096
    assert lay.page_align_up(4097) == 8192
    assert lay.pages_for(1) == 1
    assert lay.pages_for(8192) == 2


def test_region_of():
    lay = AddressSpaceLayout.small32()
    heap = lay.regions["heap"]
    assert lay.region_of(heap.start) is heap
    with pytest.raises(VMError):
        lay.region_of(0)  # below text
    # Regions declared out of address order, with gaps between them: each
    # is found from its first to its last byte, and no gap belongs to one.
    shuffled = AddressSpaceLayout(32, 4096, [
        Region("stack", 0x40000, 0x1000),
        Region("text", 0x1000, 0x1000),
        Region("iso", 0x30000, 0x2000),
        Region("data", 0x2000, 0x1000),
        Region("heap", 0x20000, 0x1000),
    ])
    for layout in (lay, AddressSpaceLayout.large64(), shuffled):
        regions = list(layout.regions.values())
        for r in regions:
            assert layout.region_of(r.start) is r
            assert layout.region_of(r.end - 1) is r
            if not any(o.contains(r.end) for o in regions):
                with pytest.raises(VMError):
                    layout.region_of(r.end)
    assert shuffled.region_of(0x2000).name == "data"   # adjacent to text


def test_layout_rejects_overlapping_regions():
    with pytest.raises(VMError):
        AddressSpaceLayout(32, 4096, [
            Region("text", 0x1000, 0x10000),
            Region("data", 0x5000, 0x1000),
            Region("heap", 0x20000, 0x1000),
            Region("iso", 0x30000, 0x1000),
            Region("stack", 0x40000, 0x1000),
        ])


def test_layout_rejects_unaligned_regions():
    with pytest.raises(VMError):
        AddressSpaceLayout(32, 4096, [
            Region("text", 0x1001, 0x1000),
            Region("data", 0x10000, 0x1000),
            Region("heap", 0x20000, 0x1000),
            Region("iso", 0x30000, 0x1000),
            Region("stack", 0x40000, 0x1000),
        ])


def test_layout_rejects_missing_required_region():
    with pytest.raises(VMError):
        AddressSpaceLayout(32, 4096, [
            Region("text", 0x1000, 0x1000),
            Region("data", 0x10000, 0x1000),
        ])


def test_layout_rejects_bad_word_bits():
    with pytest.raises(VMError):
        AddressSpaceLayout(16, 4096, [])


def test_mb_gb_constants():
    assert MB == 1024 * 1024
    assert GB == 1024 * MB
