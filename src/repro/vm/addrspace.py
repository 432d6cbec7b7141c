"""Simulated address spaces: mappings, reads/writes, and remapping.

An :class:`AddressSpace` combines an :class:`~repro.vm.layout.AddressSpaceLayout`
(where regions live), its :class:`Mapping` extents (what is mapped, and
which frames are behind each page) and a
:class:`~repro.vm.physical.PhysicalMemory` pool (what is resident).  It
exposes the handful of operations the paper's techniques are built from:

* ``mmap``/``munmap`` with either kernel-chosen or fixed addresses;
* *reserved* mappings that consume virtual address space but no physical
  frames — how isomalloc claims remote threads' slots "only in principle";
* ``attach_frames``/``detach_frames`` to make a reserved range resident or
  strip its frames out (a migration departing/arriving);
* ``remap_frames`` to alias a different set of physical frames under an
  existing virtual range — the memory-aliasing stack switch (Figure 3);
* byte and word reads/writes with protection checking, so simulated
  pointers stored in simulated memory behave like real ones.

There is no per-page table: a mapping is one extent, so reserving,
re-protecting and swapping frames cost the host one step whatever the
range's size, as they cost the modeled machine one call.  Page-granular
*quantities* (faults, COW breaks, pages mapped) are still counted exactly.
"""

from __future__ import annotations

import bisect
import enum
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import (
    MapError,
    OutOfPhysicalMemory,
    OutOfVirtualAddressSpace,
    PageFault,
    ProtectionFault,
    SegmentationFault,
    VMError,
)
from repro.vm.layout import AddressSpaceLayout
from repro.vm.physical import Frame, PhysicalMemory

__all__ = ["Protection", "Mapping", "AddressSpace"]


class Protection(enum.Flag):
    """Page protection bits (a subset of mmap's PROT_*)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()
    #: Convenience combination used by almost every data mapping.
    RW = READ | WRITE
    #: Convenience combination for text segments.
    RX = READ | EXEC


_READ = Protection.READ.value
_WRITE = Protection.WRITE.value


class Mapping:
    """One contiguous mmap'ed range within an address space: an extent.

    The mapping *is* the page-table record for its range: one protection
    for every page, one frame slot per page, and the set of pages still
    shared copy-on-write.
    """

    __slots__ = ("start", "length", "prot", "region", "tag", "frames", "cow")

    def __init__(self, start: int, length: int, prot: Protection,
                 region: str, tag: str,
                 frames: Optional[List[Optional[Frame]]] = None):
        self.start = start
        self.length = length
        self.prot = prot
        self.region = region
        #: Free-form label ("stack of thread 7", "GOT", ...), for debugging
        #: and for migration bookkeeping.
        self.tag = tag
        #: The frame behind each page (``None``: that page is reserved),
        #: or ``None`` while nothing is resident — an isomalloc remote
        #: claim costs no per-page state.
        self.frames = frames
        #: Indices of pages shared copy-on-write (the first write to one
        #: copies it); ``None`` until a fork shares them.
        self.cow: Optional[Set[int]] = None

    @property
    def end(self) -> int:
        """One past the mapping's last address."""
        return self.start + self.length

    @property
    def reserved(self) -> bool:
        """True while the range has no physical backing at all."""
        return self.frames is None

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this mapping."""
        return self.start <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "reserved" if self.reserved else "mapped"
        return f"<Mapping {self.tag!r} [{self.start:#x},{self.end:#x}) {kind}>"


class _FreeList:
    """First-fit free-interval allocator over one region's address range.

    Intervals are kept sorted and non-adjacent, so fixed allocation and
    release locate their interval with :func:`bisect.bisect_right` —
    O(log n) plus a list shift — which matters when tens of thousands of
    thread stacks live in one region.
    """

    def __init__(self, start: int, end: int):
        self._intervals: List[Tuple[int, int]] = [(start, end)]

    def allocate(self, length: int, align: int) -> int:
        """Carve out an aligned range of ``length`` bytes; first fit."""
        for i, (lo, hi) in enumerate(self._intervals):
            base = -(-lo // align) * align
            if base + length <= hi:
                self._remove_range(i, lo, hi, base, base + length)
                return base
        raise OutOfVirtualAddressSpace(
            f"no free interval of {length} bytes (align {align})"
        )

    def allocate_fixed(self, start: int, length: int) -> None:
        """Carve out exactly ``[start, start+length)``; error if not free."""
        end = start + length
        i = bisect.bisect_right(self._intervals, (start, float("inf"))) - 1
        if i >= 0:
            lo, hi = self._intervals[i]
            if lo <= start and end <= hi:
                self._remove_range(i, lo, hi, start, end)
                return
        raise MapError(f"fixed range [{start:#x},{end:#x}) is not free")

    def release(self, start: int, length: int) -> None:
        """Return ``[start, start+length)`` to the free list, merging."""
        end = start + length
        iv = self._intervals
        i = bisect.bisect_right(iv, (start, float("inf")))
        # Overlap check against the neighbors.
        if i > 0 and iv[i - 1][1] > start:
            raise MapError(
                f"release [{start:#x},{end:#x}) overlaps free interval")
        if i < len(iv) and iv[i][0] < end:
            raise MapError(
                f"release [{start:#x},{end:#x}) overlaps free interval")
        merge_left = i > 0 and iv[i - 1][1] == start
        merge_right = i < len(iv) and iv[i][0] == end
        if merge_left and merge_right:
            iv[i - 1] = (iv[i - 1][0], iv[i][1])
            del iv[i]
        elif merge_left:
            iv[i - 1] = (iv[i - 1][0], end)
        elif merge_right:
            iv[i] = (start, iv[i][1])
        else:
            iv.insert(i, (start, end))

    def free_bytes(self) -> int:
        """Total bytes currently free."""
        return sum(hi - lo for lo, hi in self._intervals)

    def largest_free(self) -> int:
        """Size of the largest free interval."""
        return max((hi - lo for lo, hi in self._intervals), default=0)

    def _remove_range(self, i: int, lo: int, hi: int, start: int, end: int) -> None:
        repl: List[Tuple[int, int]] = []
        if lo < start:
            repl.append((lo, start))
        if end < hi:
            repl.append((end, hi))
        self._intervals[i:i + 1] = repl


class AddressSpace:
    """A simulated process address space.

    Parameters
    ----------
    layout:
        Region map, word size and page size.
    physical:
        Frame pool backing resident pages (typically shared by every address
        space on one simulated processor).
    name:
        Identifier used in fault messages.
    """

    def __init__(self, layout: AddressSpaceLayout, physical: PhysicalMemory,
                 name: str = "anon"):
        if physical.page_size != layout.page_size:
            raise VMError("physical page size differs from layout page size")
        self.layout = layout
        self.physical = physical
        self.name = name
        #: Live mappings by start address, in creation order.
        self._mappings: Dict[int, Mapping] = {}
        #: The same start addresses, sorted: address lookup is a bisect.
        self._starts: List[int] = []
        #: Per-region free lists, built when a region is first used.
        self._free: Dict[str, _FreeList] = {}
        self._resident_pages = 0
        # -- accounting (read by cost models and by the benchmarks) --------
        self.mmap_calls = 0
        self.munmap_calls = 0
        self.remap_calls = 0
        #: Pages ever mapped, resident or reserved (sums mmap sizes).
        self.pages_mapped = 0
        self.page_faults = 0
        self.cow_breaks = 0
        self.bytes_copied = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # mapping management
    # ------------------------------------------------------------------

    def mmap(self, length: int, prot: Protection = Protection.RW, *,
             region: str = "heap", addr: Optional[int] = None,
             reserve_only: bool = False, tag: str = "") -> Mapping:
        """Create a new mapping.

        Parameters
        ----------
        length:
            Bytes to map; rounded up to whole pages.
        prot:
            Protection bits for every page of the mapping.
        region:
            Which layout region to allocate from when ``addr`` is ``None``.
        addr:
            Fixed start address (must be page aligned and free), or ``None``
            to let the allocator choose — like ``MAP_FIXED`` vs. not.
        reserve_only:
            If true, claim the virtual range without assigning physical
            frames, at the same cost for 16 KB or 16 TB.  Reads/writes
            fault until :meth:`attach_frames`.
        tag:
            Debugging/bookkeeping label.
        """
        if length <= 0:
            raise MapError(f"mmap length must be positive, got {length}")
        page_size = self.layout.page_size
        npages = self.layout.pages_for(length)
        length = npages * page_size
        if addr is None:
            start = self._region_free(region).allocate(length, page_size)
        else:
            if addr % page_size:
                raise MapError(f"fixed mmap address {addr:#x} not page aligned")
            region = self.layout.region_of(addr).name
            self._region_free(region).allocate_fixed(addr, length)
            start = addr
        frames = None
        if not reserve_only:
            try:
                frames = self.physical.allocate_frames(npages)
            except Exception:
                self._free[region].release(start, length)
                raise
            self._resident_pages += npages
        mapping = Mapping(start, length, prot, region, tag, frames)
        starts = self._starts
        if not starts or starts[-1] < start:
            starts.append(start)
        else:
            bisect.insort(starts, start)
        self._mappings[start] = mapping
        self.mmap_calls += 1
        self.pages_mapped += npages
        return mapping

    def munmap(self, mapping: Mapping) -> None:
        """Destroy a mapping, freeing any resident frames."""
        start = mapping.start
        if self._mappings.get(start) is not mapping:
            raise MapError(f"mapping {mapping!r} not found in {self.name!r}")
        frames = mapping.frames
        if frames is not None:
            if None in frames:
                frames = [f for f in frames if f is not None]
            self.physical.free_frames(frames)
            self._resident_pages -= len(frames)
            mapping.frames = None
        self._free[mapping.region].release(start, mapping.length)
        del self._mappings[start]
        starts = self._starts
        if starts[-1] == start:
            starts.pop()
        else:
            del starts[bisect.bisect_left(starts, start)]
        self.munmap_calls += 1

    def mprotect(self, mapping: Mapping, prot: Protection) -> None:
        """Change every page's protection bits in an existing mapping."""
        if self._mappings.get(mapping.start) is not mapping:
            raise MapError(f"mapping {mapping!r} not found in {self.name!r}")
        mapping.prot = prot

    def mapping_at(self, address: int) -> Optional[Mapping]:
        """Return the mapping containing ``address``, or ``None``."""
        starts = self._starts
        i = bisect.bisect_right(starts, address) - 1
        if i >= 0:
            m = self._mappings[starts[i]]
            if address < m.start + m.length:
                return m
        return None

    def mappings(self) -> List[Mapping]:
        """All current mappings, in creation order."""
        return list(self._mappings.values())

    # ------------------------------------------------------------------
    # frame attachment (isomalloc migrate-in/out) and aliasing: validate,
    # then commit with one assignment — a refused call changes nothing.
    # The mapping copies a frame list it is given and hands over its own.
    # ------------------------------------------------------------------

    def _checked(self, mapping: Mapping, frames: Optional[List[Frame]],
                 problem: str) -> int:
        """Page count of a live ``mapping``; ``frames`` must match it."""
        npages = mapping.length // self.layout.page_size
        if frames is not None and len(frames) != npages:
            raise MapError(f"need {npages} frames, got {len(frames)}")
        if self._mappings.get(mapping.start) is not mapping:
            raise MapError(f"page {self.layout.page_of(mapping.start)} "
                           f"of {mapping!r} {problem}")
        return npages

    def attach_frames(self, mapping: Mapping, frames: List[Frame]) -> None:
        """Back a reserved mapping with physical frames (migrate-in)."""
        npages = self._checked(mapping, frames, "not mapped")
        held = mapping.frames
        if held is not None and held.count(None) != npages:
            page = next(i for i, f in enumerate(held) if f is not None)
            raise MapError(
                f"page {self.layout.page_of(mapping.start) + page} "
                f"of {mapping!r} already resident")
        mapping.frames = list(frames)
        self._resident_pages += npages - mapping.frames.count(None)
        self.remap_calls += 1

    def detach_frames(self, mapping: Mapping) -> List[Frame]:
        """Strip a mapping's frames, leaving the range reserved (migrate-out).

        The caller takes ownership of the returned frames; the virtual range
        stays claimed so no other allocation can reuse the addresses.
        """
        npages = self._checked(mapping, None, "not resident")
        frames = mapping.frames
        if frames is None or None in frames:
            page = frames.index(None) if frames is not None else 0
            raise MapError(
                f"page {self.layout.page_of(mapping.start) + page} "
                f"of {mapping!r} not resident")
        mapping.frames = None
        self._resident_pages -= npages
        self.remap_calls += 1
        return frames

    def remap_frames(self, mapping: Mapping, frames: List[Frame]) -> List[Frame]:
        """Swap the physical frames under a mapping; return the old frames.

        This is the memory-aliasing context switch (paper Figure 3): the
        virtual range — the common stack address — is untouched, but a
        different thread's physical pages now appear behind it.  Neither set
        of frames is copied or freed; ownership of the displaced frames
        passes to the caller.  ``None`` entries, in either list, are
        reserved pages.
        """
        npages = self._checked(mapping, frames, "not mapped")
        old = mapping.frames
        if old is None:
            old = [None] * npages
        mapping.frames = list(frames)
        self._resident_pages += old.count(None) - mapping.frames.count(None)
        self.remap_calls += 1
        return old

    # ------------------------------------------------------------------
    # loads and stores
    # ------------------------------------------------------------------

    def _reach(self, m: Mapping, address: int, stop: int, need: int,
               access: str) -> int:
        """Check an access to ``[address, stop)`` inside ``m`` and return
        how far it may go: ``stop``, or the base of its first page with no
        frame.  The first page faults here, in hardware order: not
        resident, then protection (one test: the mapping has one)."""
        frames = m.frames
        page_size = self.layout.page_size
        first = (address - m.start) // page_size
        if frames is None or frames[first] is None:
            self.page_faults += 1
            raise PageFault(address, self.name)
        if not m.prot.value & need:
            raise ProtectionFault(address, access, self.name)
        span = frames[first:(stop - 1 - m.start) // page_size + 1]
        if None in span:
            return m.start + (first + span.index(None)) * page_size
        return stop

    def _break_cow(self, m: Mapping, index: int) -> Frame:
        """First store to a shared page: this owner gets a private copy
        (or exclusive use, if it is the last sharer)."""
        self.cow_breaks += 1
        frame = m.frames[index]
        if frame.refcount > 1:
            private = self.physical.allocate_frame()
            private.copy_from(frame)
            self.physical.free_frame(frame)   # drops one owner
            m.frames[index] = frame = private
            self.bytes_copied += self.layout.page_size
        m.cow.discard(index)
        return frame

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address`` (may span pages
        and mappings), copied once.

        Host work is per mapping, not per page.  A fault is the one the
        first bad page raises, in hardware order: unmapped
        (:class:`SegmentationFault`), not resident (:class:`PageFault`,
        counted in ``page_faults``), then protection
        (:class:`ProtectionFault`); its ``address`` is the faulting
        byte's — ``address`` itself, or the base of a later page.  A read
        that faults returns nothing and counts no bytes.  Pages nobody
        wrote read as zeros and stay unmaterialized.  A negative
        ``length`` is refused with a :class:`VMError`.
        """
        if length < 0:
            raise VMError(f"read of negative length {length} at "
                          f"{address:#x} in {self.name!r}")
        end = address + length
        parts = []
        while address < end:
            m = self.mapping_at(address)
            if m is None:
                raise SegmentationFault(address, self.name)
            stop = m.start + m.length
            if stop > end:
                stop = end
            reach = self._reach(m, address, stop, _READ, "read")
            if reach < stop:
                self.page_faults += 1
                raise PageFault(reach, self.name)
            parts.append(self.physical.load(m.frames, address - m.start,
                                            stop - address))
            address = stop
        self.bytes_read += length
        return b"".join(parts)

    def write(self, address: int, payload: bytes) -> None:
        """Write ``payload`` starting at ``address`` (may span pages and
        mappings).

        Host work is per mapping, not per page: one slice-assign per page,
        and a copy-on-write break only where a shared page is stored to.
        Faults are :meth:`read`'s, in the same order, with the COW break
        last (:class:`~repro.errors.OutOfPhysicalMemory` when the private
        copy finds no frame).  A write is partial the way hardware's is:
        every page before the faulting one is written (and its COW broken)
        before the fault is raised; ``bytes_written`` counts only a write
        that completes.
        """
        view = memoryview(payload)
        end = address + len(view)
        page_size = self.layout.page_size
        done = 0
        while address < end:
            m = self.mapping_at(address)
            if m is None:
                raise SegmentationFault(address, self.name)
            stop = m.start + m.length
            if stop > end:
                stop = end
            reach = self._reach(m, address, stop, _WRITE, "write")
            no_copy = None
            if m.cow:
                first = (address - m.start) // page_size
                last = (reach - 1 - m.start) // page_size + 1
                for index in sorted(m.cow.intersection(range(first, last))):
                    try:
                        self._break_cow(m, index)
                    except OutOfPhysicalMemory as exc:
                        no_copy = exc
                        reach = max(address, m.start + index * page_size)
                        break
            count = reach - address
            self.physical.store(m.frames, address - m.start,
                                view[done:done + count])
            if no_copy is not None:
                raise no_copy
            if reach < stop:
                self.page_faults += 1
                raise PageFault(reach, self.name)
            done += count
            address = stop
        self.bytes_written += len(payload)

    def read_word(self, address: int) -> int:
        """Read one machine word (layout word size, little endian)."""
        return int.from_bytes(self.read(address, self.layout.word_bytes), "little")

    def write_word(self, address: int, value: int) -> None:
        """Write one machine word (layout word size, little endian)."""
        self.write(address, value.to_bytes(self.layout.word_bytes, "little", signed=False))

    def memset(self, address: int, value: int, length: int) -> None:
        """Fill ``length`` bytes at ``address`` with ``value``."""
        self.write(address, bytes([value]) * length)

    def memcpy_in(self, dst: int, src: int, length: int) -> None:
        """Copy ``length`` bytes within this address space, counting the copy."""
        self.write(dst, self.read(src, length))
        self.bytes_copied += length

    # ------------------------------------------------------------------
    # interrogation
    # ------------------------------------------------------------------

    def is_mapped(self, address: int) -> bool:
        """Whether the page containing ``address`` has any mapping."""
        return self.mapping_at(address) is not None

    def is_resident(self, address: int) -> bool:
        """Whether the page containing ``address`` has a physical frame."""
        m = self.mapping_at(address)
        if m is None or m.frames is None:
            return False
        return m.frames[(address - m.start) // self.layout.page_size] is not None

    @property
    def mapped_bytes(self) -> int:
        """Total virtual bytes claimed by mappings (resident or reserved)."""
        return sum(m.length for m in self._mappings.values())

    @property
    def resident_bytes(self) -> int:
        """Total bytes backed by physical frames (a maintained count)."""
        return self._resident_pages * self.layout.page_size

    def region_free_bytes(self, region: str) -> int:
        """Free virtual address space remaining in ``region``."""
        return self._region_free(region).free_bytes()

    def _region_free(self, region: str) -> _FreeList:
        free = self._free.get(region)
        if free is None:
            r = self.layout.regions[region]
            free = self._free[region] = _FreeList(r.start, r.end)
        return free

    # ------------------------------------------------------------------
    # process-model support
    # ------------------------------------------------------------------

    def fork_copy(self, name: str, cow: bool = False) -> "AddressSpace":
        """Duplicate this address space (fork()).

        With ``cow=False`` every resident page is eagerly copied — the
        ancient fork.  With ``cow=True`` parent and child *share* frames
        marked copy-on-write (for writable pages), and the first write on
        either side pays the copy — the modern fork, which is why process
        creation looks cheap until the child touches its memory.  Either
        way the paper's point stands: full separation of state makes
        processes "heavy-weight" in total memory once both sides write.
        """
        child = AddressSpace(self.layout, self.physical, name)
        physical = self.physical
        for m in self._mappings.values():
            cm = child.mmap(m.length, m.prot, addr=m.start,
                            reserve_only=True, tag=m.tag)
            frames = m.frames
            resident = [f for f in frames or () if f is not None]
            if not resident:
                continue
            if cow:
                for frame in resident:
                    physical.share_frame(frame)
                cm.frames = list(frames)
                child._resident_pages += len(resident)
                if m.prot.value & _WRITE:
                    m.cow = set(range(len(frames)))
                    cm.cow = set(m.cow)
            else:
                copies = physical.allocate_frames(len(resident))
                for dst, src in zip(copies, resident):
                    dst.copy_from(src)
                fresh = iter(copies)    # reserved pages stay reserved
                child.attach_frames(cm, [None if f is None else next(fresh)
                                         for f in frames])
                child.bytes_copied += m.length
        return child

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<AddressSpace {self.name!r} {len(self._mappings)} mappings, "
                f"{self.resident_bytes} resident bytes>")
