"""Per-page reference model of ``AddressSpace`` — what ``PageTable`` was.

``vpn -> [frame | None, prot, cow]``: one entry per page, one loop step per
page (per byte, for loads and stores), frames taken and returned one at a
time from the model's own pool.  Slow and obvious on purpose; the extent
implementation is checked against it in ``test_extent_oracle.py``.  A
mapping is named by its first page (the caller picks it: address choice is
``_FreeList``'s job, tested on its own); ``extents`` keeps the page counts
in creation order.  There are no run forms: a run is replayed as one call
per mapping, and ``forget`` takes back a refused run's earlier ones.
"""

from collections import Counter

from repro.errors import (MapError, OutOfPhysicalMemory, PageFault,
                          ProtectionFault, SegmentationFault, VMError)
from repro.vm import Protection


class PageModel:
    def __init__(self, physical):
        self.physical, self.page = physical, physical.page_size
        self.pages, self.extents, self.n = {}, {}, Counter()

    def _need_frames(self, count):
        if self.physical.frames_free < count:
            raise OutOfPhysicalMemory("model")

    def _copy_of(self, frame):
        private = self.physical.allocate_frame()
        private.copy_from(frame)
        return private

    def _ptes(self, first):
        return [self.pages[first + i] for i in range(self.extents[first])]

    def mmap(self, first, npages, prot, reserve):
        if any(first + i in self.pages for i in range(npages)):
            raise MapError("model: range not free")
        if not reserve:
            self._need_frames(npages)
        for vpn in range(first, first + npages):
            frame = None if reserve else self.physical.allocate_frame()
            self.pages[vpn] = [frame, prot, False]
        self.extents[first] = npages
        self.n["mmap_calls"] += 1
        self.n["pages_mapped"] += npages

    def forget(self, first):
        """Take back a reserved ``mmap(first, …)`` whole, counters too: a
        refused run's earlier mappings, as the run never made them."""
        npages = self.extents.pop(first)
        for i in range(npages):
            del self.pages[first + i]
        self.n["mmap_calls"] -= 1
        self.n["pages_mapped"] -= npages

    def munmap(self, first):
        for pte in self._ptes(first):
            if pte[0] is not None:
                self.physical.free_frame(pte[0])
        for i in range(self.extents.pop(first)):
            del self.pages[first + i]
        self.n["munmap_calls"] += 1

    def mprotect(self, first, prot):
        for pte in self._ptes(first):
            pte[1] = prot

    def swap(self, first, frames, want=None):
        """attach (every page must be ``want`` "reserved"), detach
        ("resident"; ``frames`` None) or remap: all-or-nothing, returns
        the frames that were there."""
        ptes = self._ptes(first)
        if frames is not None and len(frames) != len(ptes):
            raise MapError("model: frame count")
        if want and any((p[0] is None) != (want == "reserved") for p in ptes):
            raise MapError(f"model: a page is not {want}")
        old = [pte[0] for pte in ptes]
        for pte, frame in zip(ptes, frames or [None] * len(ptes)):
            pte[0] = frame
        self.n["remap_calls"] += 1
        return old

    def translate(self, address, write):
        pte = self.pages.get(address // self.page)
        if pte is None:
            raise SegmentationFault(address, "model")
        if pte[0] is None:
            self.n["page_faults"] += 1
            raise PageFault(address, "model")
        if not pte[1] & (Protection.WRITE if write else Protection.READ):
            raise ProtectionFault(address, "access", "model")
        if write and pte[2]:
            self.n["cow_breaks"] += 1
            if pte[0].refcount > 1:
                shared, pte[0] = pte[0], self._copy_of(pte[0])
                self.physical.free_frame(shared)
                self.n["bytes_copied"] += self.page
            pte[2] = False
        return pte[0], address % self.page

    def read(self, address, length):
        if length < 0:
            raise VMError(f"model: read of negative length {length} at "
                          f"{address:#x}")
        found = [self.translate(address + i, False) for i in range(length)]
        self.n["bytes_read"] += length
        return b"".join(frame.read(offset, 1) for frame, offset in found)

    def write(self, address, payload):
        for i in range(len(payload)):
            frame, offset = self.translate(address + i, True)
            frame.write(offset, payload[i:i + 1])
        self.n["bytes_written"] += len(payload)

    def memcpy(self, dst, src, length):
        """Read every source byte, then write every destination byte;
        then each whole destination page written whose source bytes all
        sat in frames nobody wrote drops its buffer again."""
        data = self.read(src, length)
        blank = [not self.translate(src + i, False)[0].materialized
                 for i in range(length)]
        written = []
        try:
            for i in range(length):
                frame, offset = self.translate(dst + i, True)
                frame.write(offset, data[i:i + 1])
                written.append(frame)
        finally:
            for i in range(-dst % self.page, len(written) - self.page + 1,
                           self.page):
                if all(blank[i:i + self.page]):
                    written[i].zero()
        self.n["bytes_written"] += length
        self.n["bytes_copied"] += length

    def fork(self, cow):
        child = PageModel(self.physical)
        for first, npages in self.extents.items():
            ptes = self._ptes(first)
            child.mmap(first, npages, ptes[0][1], True)
            resident = sum(pte[0] is not None for pte in ptes)
            if not resident:
                continue
            if not cow:
                self._need_frames(resident)
                child.n["remap_calls"] += 1
                child.n["bytes_copied"] += npages * self.page
            for pte, mine in zip(ptes, child._ptes(first)):
                if pte[0] is not None:
                    mine[0] = (self.physical.share_frame(pte[0]) if cow
                               else self._copy_of(pte[0]))
                if cow and pte[1] & Protection.WRITE:
                    pte[2] = mine[2] = True
        return child
