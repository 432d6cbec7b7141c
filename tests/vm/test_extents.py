"""A mapping is one extent: all-or-nothing frame swaps and structural pins.

What these tests hold still is *host* cost and failure atomicity; the
modeled quantities are held by ``test_extent_oracle.py``.
"""

import importlib.util
import json
import pathlib
import sys
import tracemalloc

import pytest

from repro.errors import MapError
from repro.vm import AddressSpace, AddressSpaceLayout, PhysicalMemory
from repro.vm.layout import MB

PERF = pathlib.Path(__file__).resolve().parents[2] / "perf"


@pytest.fixture
def space():
    return AddressSpace(AddressSpaceLayout.small32(),
                        PhysicalMemory(64 * MB), name="test")


def residency(space, m):
    return [space.is_resident(m.start + i * 4096)
            for i in range(m.length // 4096)]


def half_resident(space):
    """A 4-page mapping with only page 2 resident, and that page's frame."""
    m = space.mmap(4 * 4096, reserve_only=True, region="iso")
    (frame,) = space.physical.allocate_frames(1)
    space.remap_frames(m, [None, None, frame, None])
    return m, frame


# -- attach/detach are all-or-nothing -----------------------------------

def test_refused_attach_changes_nothing(space):
    m, frame = half_resident(space)
    four = space.physical.allocate_frames(4)
    calls = space.remap_calls
    with pytest.raises(MapError, match="already resident"):
        space.attach_frames(m, four)
    assert residency(space, m) == [False, False, True, False]
    assert space.resident_bytes == 4096 and space.remap_calls == calls
    assert space.remap_frames(m, [None] * 4) == [None, None, frame, None]


def test_refused_detach_drops_no_frame(space):
    m, frame = half_resident(space)
    space.remap_frames(m, space.physical.allocate_frames(3) + [None])
    with pytest.raises(MapError, match="not resident"):
        space.detach_frames(m)
    assert residency(space, m) == [True, True, True, False]
    # Every frame is still reachable, so every frame can still be freed.
    space.physical.free_frames([frame])
    space.munmap(m)
    assert space.physical.frames_in_use == 0


# -- the mapping keeps its own copy of a frame list it is given ------------

def test_callers_list_is_not_the_mappings_list(space):
    m = space.mmap(2 * 4096, reserve_only=True, region="iso")
    mine = space.physical.allocate_frames(2)
    kept = list(mine)
    space.attach_frames(m, mine)
    mine.clear()
    assert residency(space, m) == [True, True]
    other = space.physical.allocate_frames(2)
    assert space.remap_frames(m, other) == kept
    other[0] = None
    assert residency(space, m) == [True, True]
    # ...and the list handed back is the caller's alone.
    out = space.detach_frames(m)
    out.clear()
    assert m.reserved and space.resident_bytes == 0


# -- what a reservation costs the host ------------------------------------

def test_reserving_a_terabyte_allocates_nothing_per_page():
    sp = AddressSpace(AddressSpaceLayout.large64(), PhysicalMemory(64 * MB))
    sp.munmap(sp.mmap(4096, region="iso", reserve_only=True))   # warm up
    tracemalloc.start()
    try:
        m = sp.mmap(1 << 40, region="iso", reserve_only=True)
        assert sp.is_mapped(m.end - 1) and not sp.is_resident(m.end - 1)
        sp.munmap(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.pages_mapped == 1 + (1 << 28)
    assert peak < 4096, peak      # 2**28 pages; one PTE each was gigabytes


def test_address_lookup_is_a_bisect_not_a_scan():
    sp = AddressSpace(AddressSpaceLayout.large64(), PhysicalMemory(64 * MB))
    maps = [sp.mmap(8192, region="iso", reserve_only=True)
            for _ in range(30_000)]
    touched = []

    class Start(int):
        """A start address that reports being compared."""

        def __lt__(self, other):
            touched.append(int(self))
            return int(self) < other

        def __gt__(self, other):
            touched.append(int(self))
            return int(self) > other

    class Counting(dict):
        def __getitem__(self, key):
            touched.append(key)
            return dict.__getitem__(self, key)

        def values(self):
            touched.extend(self)
            return dict.values(self)

    sp._starts[:] = [Start(s) for s in sp._starts]
    sp._mappings = Counting(sp._mappings)
    per_lookup = (30_000).bit_length() + 1    # comparisons + one mapping
    for m in (maps[0], maps[12_345], maps[-1]):
        del touched[:]
        assert sp.mapping_at(m.start + 5000) is m
        assert not sp.is_resident(m.start + 5000)
        assert sp.mapping_at(m.end - 1) is m
        assert len(touched) <= 3 * per_lookup, len(touched)
    del touched[:]
    assert sp.mapping_at(maps[-1].end) is None
    assert len(touched) <= per_lookup


# -- the count the benchmark shim used to take from PageTable.map ----------

def test_pages_mapped_over_one_mech_figs_repetition(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perf_workloads", PERF / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # dataclasses
    spec.loader.exec_module(workloads)
    config = json.loads((PERF / "config.json").read_text())
    spaces = []
    init = AddressSpace.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        spaces.append(self)

    monkeypatch.setattr(AddressSpace, "__init__", recording_init)

    class phase:
        def __init__(self, name):
            pass

        def __enter__(self):
            pass

        def __exit__(self, *exc):
            return False

    bench = workloads.WORKLOADS["mech_figs"]()
    bench.setup(config["sizes"]["default"]["mech_figs"],
                config["default_seed"])
    bench.rep(phase)
    assert sum(sp.mmap_calls for sp in spaces) == 70_566
    assert sum(sp.pages_mapped for sp in spaces) == 386_564
