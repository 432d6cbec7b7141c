"""Property-based tests for the VM substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.vm import AddressSpace, AddressSpaceLayout, PhysicalMemory, MemoryCostModel
from repro.vm.addrspace import _FreeList
from repro.vm.layout import MB


# ---------------------------------------------------------------------------
# Read/write roundtrips at arbitrary offsets and lengths
# ---------------------------------------------------------------------------

@given(
    offset=st.integers(min_value=0, max_value=3 * 4096),
    payload=st.binary(min_size=1, max_size=4096),
)
@settings(max_examples=60, deadline=None)
def test_write_read_roundtrip(offset, payload):
    pm = PhysicalMemory(8 * MB)
    sp = AddressSpace(AddressSpaceLayout.small32(), pm)
    m = sp.mmap(4 * 4096 + 4096)
    if offset + len(payload) <= m.length:
        sp.write(m.start + offset, payload)
        assert sp.read(m.start + offset, len(payload)) == payload


@given(value=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_word_roundtrip_any_value(value):
    pm = PhysicalMemory(1 * MB)
    sp = AddressSpace(AddressSpaceLayout.small32(), pm)
    m = sp.mmap(4096)
    sp.write_word(m.start, value)
    assert sp.read_word(m.start) == value


# ---------------------------------------------------------------------------
# Free-list allocator invariants
# ---------------------------------------------------------------------------

@st.composite
def alloc_scripts(draw):
    """A random sequence of allocate/free operations (sizes in pages)."""
    n = draw(st.integers(min_value=1, max_value=25))
    return [draw(st.integers(min_value=1, max_value=8)) for _ in range(n)]


@given(alloc_scripts(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_freelist_never_double_allocates(sizes, rng):
    fl = _FreeList(0x1000_0000, 0x1800_0000)
    page = 4096
    live: list[tuple[int, int]] = []
    for npages in sizes:
        length = npages * page
        # Randomly free one live allocation first, sometimes.
        if live and rng.random() < 0.4:
            start, ln = live.pop(rng.randrange(len(live)))
            fl.release(start, ln)
        (start,) = fl.allocate_run(1, length, page)
        # No overlap with any live allocation.
        for other_start, other_len in live:
            assert start + length <= other_start or other_start + other_len <= start
        live.append((start, length))
    # Free everything: full capacity restored.
    for start, ln in live:
        fl.release(start, ln)
    assert fl.free_bytes() == 0x0800_0000


@given(alloc_scripts())
@settings(max_examples=40, deadline=None)
def test_freelist_conservation(sizes):
    """free_bytes + allocated bytes is invariant."""
    total = 0x0100_0000
    fl = _FreeList(0, total)
    allocated = 0
    for npages in sizes:
        length = npages * 4096
        if fl.largest_free() < length:
            continue
        fl.allocate_run(1, length, 4096)
        allocated += length
        assert fl.free_bytes() == total - allocated


# ---------------------------------------------------------------------------
# Mapping lifecycle invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_mmap_munmap_restores_everything(page_counts):
    pm = PhysicalMemory(16 * MB)
    sp = AddressSpace(AddressSpaceLayout.small32(), pm)
    free_before = sp.region_free_bytes("heap")
    maps = [sp.mmap(n * 4096) for n in page_counts]
    assert sp.mapped_bytes == sum(n * 4096 for n in page_counts)
    for m in maps:
        sp.munmap(m)
    assert sp.region_free_bytes("heap") == free_before
    assert sp.mapped_bytes == 0
    assert pm.frames_in_use == 0


@given(st.binary(min_size=1, max_size=2000), st.binary(min_size=1, max_size=2000))
@settings(max_examples=40, deadline=None)
def test_fork_isolation_property(parent_data, child_data):
    pm = PhysicalMemory(8 * MB)
    sp = AddressSpace(AddressSpaceLayout.small32(), pm)
    m = sp.mmap(4096, region="data")
    sp.write(m.start, parent_data)
    child = sp.fork_copy("child")
    child.write(m.start, child_data)
    assert sp.read(m.start, len(parent_data)) == parent_data


# ---------------------------------------------------------------------------
# Cost model sanity
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=10_000_000))
@settings(max_examples=30, deadline=None)
def test_memcpy_cost_monotone(nbytes):
    cm = MemoryCostModel()
    assert cm.memcpy_cost(nbytes) > 0
    assert cm.memcpy_cost(2 * nbytes) > cm.memcpy_cost(nbytes)


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=30, deadline=None)
def test_remap_cost_exceeds_mmap_cost(npages):
    cm = MemoryCostModel()
    assert cm.remap_cost(npages) > cm.mmap_cost(npages)
    assert cm.mmap_cost(npages + 1) > cm.mmap_cost(npages)
