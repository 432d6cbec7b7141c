"""Isomalloc: globally-unique virtual addresses for migratable threads.

Section 3.4.2 of the paper (after PM2 [4]): the unused virtual address
space between heap and stack — the *isomalloc region* — is divided at
startup into per-processor ranges; a processor grants each local thread a
globally unique *slot* of virtual addresses from its own range.  A thread's
stack and heap live inside its slot, so after migrating to any other
processor the thread's data occupies the very same virtual addresses and
"pointers within and between the thread's stack and heap need not be
modified".

Physical memory is only assigned to *local* threads' pages; remote slots
are claimed "only in principle".  The price is virtual-address-space
consumption on every processor proportional to the total number of threads,
which exhausts 32-bit machines quickly — reproduce with
:attr:`IsomallocArena.slots_per_pe` and the Figure 9 / ablation benches.

This module also implements the paper's extension over PM2: *malloc
interposition*.  :class:`IsomallocHeap` provides ``malloc``/``free`` whose
block headers live in simulated memory, and :class:`repro.core.thread.UThread`
routes its allocation calls here when running in a thread context, so
"unmodified applications" get migratable heap data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import (MapError, MigrationError, OutOfVirtualAddressSpace,
                          ThreadError)
from repro.vm.addrspace import AddressSpace, Mapping
from repro.vm.layout import AddressSpaceLayout

__all__ = ["IsomallocArena", "IsomallocSlot", "IsomallocHeap"]

#: malloc block header: 8-byte magic + 8-byte size, stored in simulated
#: memory immediately before the user pointer.
_HEADER_BYTES = 16
_MAGIC = 0x150_A110C  # "ISO ALLOC"


class IsomallocArena:
    """Cluster-wide partition of the isomalloc region (paper Figure 2).

    The arena is the startup-time agreement among all processors: processor
    *i* owns ``[iso.start + i*range, iso.start + (i+1)*range)`` and hands
    out fixed-size slots from it.  Because the partition is global, slot
    addresses are unique across the entire machine without communication.

    Parameters
    ----------
    layout:
        The (shared) address-space layout; all processors must agree on it.
    num_pes:
        Number of processors in the partition.
    slot_bytes:
        Virtual size of each thread slot (stack + heap), default 1 MiB —
        the paper's example figure.
    """

    def __init__(self, layout: AddressSpaceLayout, num_pes: int,
                 slot_bytes: int = 1024 * 1024):
        if num_pes <= 0:
            raise ThreadError("arena needs at least one processor")
        iso = layout.regions["iso"]
        slot_bytes = layout.page_align_up(slot_bytes)
        page = layout.page_size
        range_bytes = (iso.size // num_pes) // page * page
        if range_bytes < slot_bytes:
            raise OutOfVirtualAddressSpace(
                f"isomalloc region of {iso.size} bytes cannot give "
                f"{num_pes} processors even one {slot_bytes}-byte slot each")
        self.layout = layout
        self.num_pes = num_pes
        self.slot_bytes = slot_bytes
        self.range_bytes = range_bytes
        self.slots_per_pe = range_bytes // slot_bytes
        self._next_index: List[int] = [0] * num_pes
        self._free_indices: List[List[int]] = [[] for _ in range(num_pes)]
        self._owner: Dict[int, int] = {}  # slot base -> allocating pe

    def pe_range(self, pe: int) -> Tuple[int, int]:
        """(start, size) of processor ``pe``'s share of the region."""
        self._check_pe(pe)
        iso = self.layout.regions["iso"]
        return iso.start + pe * self.range_bytes, self.range_bytes

    def allocate_slot(self, pe: int) -> int:
        """Grant a globally unique slot base address from ``pe``'s range."""
        return self.allocate_slots(pe, 1)[0]

    def allocate_slots(self, pe: int, count: int) -> List[int]:
        """Grant ``count`` slot base addresses from ``pe``'s range, the
        ones ``count`` calls of :meth:`allocate_slot` would grant, in
        their order: freed slots first, most recently freed first, then
        fresh ones.  All or nothing: a range with too few slots left
        refuses the grant and changes nothing."""
        self._check_pe(pe)
        free = self._free_indices[pe]
        fresh = count - len(free)
        if fresh > self.slots_per_pe - self._next_index[pe]:
            raise OutOfVirtualAddressSpace(
                f"processor {pe} exhausted its isomalloc range "
                f"({self.slots_per_pe} slots of {self.slot_bytes} bytes)")
        indices = free[:-count - 1:-1] if count > 0 else []
        del free[len(free) - len(indices):]
        if fresh > 0:
            first = self._next_index[pe]
            self._next_index[pe] = first + fresh
            indices += range(first, first + fresh)
        start, _ = self.pe_range(pe)
        slot, owner = self.slot_bytes, self._owner
        bases = [start + index * slot for index in indices]
        for base in bases:
            owner[base] = pe
        return bases

    def slots_free(self, pe: int) -> int:
        """How many more slots ``pe``'s range can grant."""
        self._check_pe(pe)
        return (len(self._free_indices[pe])
                + self.slots_per_pe - self._next_index[pe])

    def release_slot(self, base: int) -> None:
        """Return a slot to its birth processor's free pool."""
        self.release_slots((base,))

    def release_slots(self, bases: Iterable[int]) -> None:
        """Return slots to their birth processors' free pools, in the
        given order (the last one returned is the first granted again)."""
        owner = self._owner
        for base in bases:
            pe = owner.pop(base, None)
            if pe is None:
                raise ThreadError(f"slot base {base:#x} was not allocated")
            start, _ = self.pe_range(pe)
            self._free_indices[pe].append((base - start) // self.slot_bytes)

    def slots_in_use(self) -> int:
        """Total slots currently allocated across the machine."""
        return len(self._owner)

    def _check_pe(self, pe: int) -> None:
        if not 0 <= pe < self.num_pes:
            raise ThreadError(f"bad processor {pe} (arena has {self.num_pes})")


def _heap_state(brk: int, free: list, allocated_bytes: int,
                live_blocks: int) -> dict:
    """A heap's allocator metadata as its image carries it (the keys and
    their order are part of the checkpoint format)."""
    return {"brk": brk, "free": free, "allocated_bytes": allocated_bytes,
            "live_blocks": live_blocks}


@dataclass
class _HeapExtent:
    """Python-side record of one mmap'ed chunk of a slot's heap."""

    mapping: Mapping


class IsomallocHeap:
    """A first-fit malloc/free allocator inside one slot's heap area.

    Block headers (magic + size) are stored in *simulated memory* before
    each user block: ``free`` reads the header back through the address
    space, so heap discipline errors (bad pointer, double free after
    reuse) surface just as they would natively.  The free list itself is
    Python-side metadata carried in the thread's migration image; its
    addresses stay valid after migration precisely because of isomalloc.
    """

    def __init__(self, space: AddressSpace, base: int, limit: int,
                 page_size: int):
        self.space = space
        self.base = base          # lowest heap address in the slot
        self.limit = limit        # one past the highest usable heap address
        self.page_size = page_size
        self.brk = base           # top of the mapped (resident) heap
        self._free: List[Tuple[int, int]] = []   # (addr, size) of free blocks
        self.allocated_bytes = 0
        self.live_blocks = 0
        self._extents: List[_HeapExtent] = []

    # -- allocation ---------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` of migratable heap; returns the user address."""
        if nbytes <= 0:
            raise ThreadError(f"malloc of non-positive size {nbytes}")
        need = _HEADER_BYTES + self._round(nbytes)
        addr = self._take_free(need)
        if addr is None:
            addr = self._extend(need)
        self.space.write_word(addr, _MAGIC)
        self.space.write_word(addr + self.space.layout.word_bytes,
                              need - _HEADER_BYTES)
        self.allocated_bytes += need - _HEADER_BYTES
        self.live_blocks += 1
        return addr + _HEADER_BYTES

    def free(self, user_addr: int) -> None:
        """Free a block previously returned by :meth:`malloc`."""
        addr = user_addr - _HEADER_BYTES
        word = self.space.layout.word_bytes
        if not (self.base <= addr < self.brk):
            raise ThreadError(f"free of {user_addr:#x} outside this heap")
        if self.space.read_word(addr) != _MAGIC:
            raise ThreadError(f"free of {user_addr:#x}: bad block header")
        size = self.space.read_word(addr + word)
        self.space.write_word(addr, 0)  # poison the magic against double free
        self._free.append((addr, _HEADER_BYTES + size))
        self.allocated_bytes -= size
        self.live_blocks -= 1

    def block_size(self, user_addr: int) -> int:
        """Size of a live block (reads the in-memory header)."""
        addr = user_addr - _HEADER_BYTES
        if self.space.read_word(addr) != _MAGIC:
            raise ThreadError(f"{user_addr:#x} is not a live block")
        return self.space.read_word(addr + self.space.layout.word_bytes)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _round(n: int) -> int:
        return (n + 15) // 16 * 16

    def _take_free(self, need: int) -> Optional[int]:
        for i, (addr, size) in enumerate(self._free):
            if size >= need:
                if size - need >= _HEADER_BYTES + 16:
                    self._free[i] = (addr + need, size - need)
                else:
                    # Absorb the fragment; header records the true size.
                    need = size
                    del self._free[i]
                return addr
        return None

    def _extend(self, need: int) -> int:
        new_brk = self.brk + need
        if new_brk > self.limit:
            raise OutOfVirtualAddressSpace(
                f"slot heap exhausted: need {need} bytes past brk "
                f"{self.brk:#x}, limit {self.limit:#x}")
        mapped_to = self._mapped_top()
        if new_brk > mapped_to:
            grow = self.space.layout.page_align_up(new_brk - mapped_to)
            m = self.space.mmap(grow, addr=mapped_to, tag="iso-heap")
            self._extents.append(_HeapExtent(m))
        addr = self.brk
        self.brk = new_brk
        return addr

    def _mapped_top(self) -> int:
        if not self._extents:
            return self.base
        return max(e.mapping.end for e in self._extents)

    # -- migration support -----------------------------------------------------

    def pack_state(self) -> dict:
        """Metadata needed to rebuild the allocator on another processor."""
        return _heap_state(self.brk, list(self._free), self.allocated_bytes,
                           self.live_blocks)

    def heap_bytes(self) -> bytes:
        """The resident heap contents ``[base, brk)`` for shipping."""
        if self.brk == self.base:
            return b""
        return self.space.read(self.base, self.brk - self.base)

    @classmethod
    def rebuild(cls, space: AddressSpace, base: int, limit: int,
                page_size: int, state: dict, contents: bytes) -> "IsomallocHeap":
        """Reconstruct a heap at the *same addresses* on a new processor."""
        heap = cls(space, base, limit, page_size)
        if contents:
            grow = space.layout.page_align_up(len(contents))
            if base + grow > limit:
                raise MigrationError("migrated heap exceeds slot limit")
            m = space.mmap(grow, addr=base, tag="iso-heap")
            heap._extents.append(_HeapExtent(m))
            space.write(base, contents)
        heap.brk = state["brk"]
        heap._free = [tuple(t) for t in state["free"]]
        heap.allocated_bytes = state["allocated_bytes"]
        heap.live_blocks = state["live_blocks"]
        return heap

    def unmap_all(self) -> None:
        """Release every heap extent (thread exit or migrate-out)."""
        for e in self._extents:
            self.space.munmap(e.mapping)
        self._extents.clear()


class IsomallocSlot:
    """One thread's slot: stack at the top, heap growing from the bottom.

    ::

        base                                    base+slot_bytes
        |  heap -> ...............  <- guard ->  |  stack  |
    """

    def __init__(self, arena: IsomallocArena, space: AddressSpace, pe: int,
                 stack_bytes: int):
        stack_bytes = arena.layout.page_align_up(stack_bytes)
        if stack_bytes + arena.layout.page_size * 2 > arena.slot_bytes:
            raise ThreadError(
                f"stack of {stack_bytes} bytes does not fit a "
                f"{arena.slot_bytes}-byte slot")
        self.arena = arena
        self.space = space
        self.pe = pe
        self.base = arena.allocate_slot(pe)
        self.stack_bytes = stack_bytes
        self.stack_base = self.base + arena.slot_bytes - stack_bytes
        self.stack_mapping: Optional[Mapping] = space.mmap(
            stack_bytes, addr=self.stack_base, tag="iso-stack")
        #: The slot's allocator, built on the first ``malloc``/``free``:
        #: a thread that never allocates carries none.
        self.heap: Optional[IsomallocHeap] = None

    @property
    def stack_top(self) -> int:
        """Highest stack address + 1 (initial stack pointer)."""
        return self.stack_base + self.stack_bytes

    def _used_heap(self) -> IsomallocHeap:
        if self.heap is None:
            page = self.arena.layout.page_size
            # A guard page separates the heap's limit from the stack.
            self.heap = IsomallocHeap(self.space, self.base,
                                      self.stack_base - page, page)
        return self.heap

    def malloc(self, nbytes: int) -> int:
        """Allocate migratable heap memory inside the slot."""
        return self._used_heap().malloc(nbytes)

    def free(self, addr: int) -> None:
        """Free migratable heap memory inside the slot."""
        self._used_heap().free(addr)

    def contains(self, address: int) -> bool:
        """Whether an address belongs to this slot's range."""
        return self.base <= address < self.base + self.arena.slot_bytes

    # -- migration ----------------------------------------------------------

    def pack(self) -> dict:
        """Produce the slot's migration image (stack + heap + metadata)."""
        assert self.stack_mapping is not None
        heap = self.heap
        return {
            "base": self.base,
            "stack_bytes": self.stack_bytes,
            "stack_contents": self.space.read(self.stack_base, self.stack_bytes),
            # A slot without a heap ships what a fresh heap would.
            "heap_state": (_heap_state(self.base, [], 0, 0) if heap is None
                           else heap.pack_state()),
            "heap_contents": b"" if heap is None else heap.heap_bytes(),
        }

    @staticmethod
    def image_bytes(image: dict) -> int:
        """Simulated wire size of a :meth:`pack` image: stack, resident
        heap, and the allocator metadata (a 64-byte header plus 16 bytes
        per free-list entry)."""
        return (len(image["stack_contents"]) + len(image["heap_contents"])
                + 16 * len(image["heap_state"]["free"]) + 64)

    def evacuate(self) -> None:
        """Unmap everything locally after packing (migrate-out).

        The slot's virtual range remains owned cluster-wide (the arena does
        not release it), so no other thread can ever collide with these
        addresses.
        """
        if self.stack_mapping is not None:
            self.space.munmap(self.stack_mapping)
            self.stack_mapping = None
        if self.heap is not None:
            self.heap.unmap_all()

    @classmethod
    def adopt(cls, arena: IsomallocArena, space: AddressSpace, pe: int,
              image: dict) -> "IsomallocSlot":
        """Rebuild a migrated slot at identical addresses on processor ``pe``."""
        slot = cls.__new__(cls)
        slot.arena = arena
        slot.space = space
        slot.pe = pe
        slot.base = image["base"]
        slot.stack_bytes = image["stack_bytes"]
        slot.stack_base = slot.base + arena.slot_bytes - slot.stack_bytes
        try:
            slot.stack_mapping = space.mmap(
                slot.stack_bytes, addr=slot.stack_base, tag="iso-stack")
        except MapError as e:
            raise MigrationError(
                f"slot addresses {slot.stack_base:#x} unavailable on "
                f"processor {pe}: {e}") from e
        space.write(slot.stack_base, image["stack_contents"])
        state = image["heap_state"]
        if state["brk"] == slot.base:
            # Nothing was ever allocated: no free list, no contents.
            slot.heap = None
        else:
            page = arena.layout.page_size
            slot.heap = IsomallocHeap.rebuild(
                space, slot.base, slot.stack_base - page, page, state,
                image["heap_contents"])
        return slot

    def destroy(self) -> None:
        """Release the slot entirely (thread exit)."""
        self.evacuate()
        self.arena.release_slot(self.base)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IsomallocSlot base={self.base:#x} pe={self.pe}>"
