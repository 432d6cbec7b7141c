"""The three migratable-thread stack techniques (paper Section 3.4).

All three guarantee the property migration needs: *a thread's stack data
occupies the same virtual addresses on every processor*, so the pointers a
stack inevitably contains (return addresses, frame pointers, pointer
variables — many pointing into the stack itself) stay valid without any
rewriting.

=====================  ======================================================
Technique              How the address is kept constant
=====================  ======================================================
Stack copying          One system-wide stack address; each switch copies the
                       outgoing thread's live stack out to backing store and
                       the incoming thread's back in.  Switch cost grows
                       linearly with live stack bytes (Figure 9); only one
                       thread can be active per address space.
Isomalloc              Every thread has globally unique addresses from the
                       isomalloc region, so nothing moves at a switch —
                       switches are pure register swaps, flat in stack size
                       and the fastest curve in Figure 9.  Costs virtual
                       address space on every processor.
Memory aliasing        One stack address like stack copying, but the switch
                       *remaps* the incoming thread's physical pages under
                       the common address instead of copying — an mmap-class
                       operation, ~µs flat cost growing only with page count
                       (Figure 9, and this paper's new contribution).
=====================  ======================================================

Each manager implements the same interface so the scheduler, the migrator,
and the Figure 9 benchmark treat techniques uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import MigrationError, ThreadError
from repro.core.isomalloc import IsomallocArena, IsomallocSlot
from repro.sim.platform import PlatformProfile
from repro.vm.addrspace import AddressSpace, Mapping
from repro.vm.physical import Frame

__all__ = ["StackRecord", "StackManager", "StackCopyStacks",
           "IsomallocStacks", "MemoryAliasStacks", "make_stack_manager"]


@dataclass
class StackRecord:
    """Per-thread stack bookkeeping handed out by a :class:`StackManager`.

    ``base``/``top`` are the addresses *the thread sees*; ``used_bytes``
    models how much of the stack is live (the alloca() knob of the paper's
    Figure 9 experiment) and is what stack copying pays to move.
    """

    tid: int
    base: int
    size: int
    used_bytes: int
    #: Extra live bytes beyond ``used_bytes`` — the register image the
    #: scheduler pushed below the thread's data while it is suspended.
    extra_live: int = 0
    #: Threads sharing an address class share a stack address and cannot
    #: be active simultaneously (0 for single-address techniques; unique
    #: per thread for isomalloc; the slot index for k-slot aliasing).
    address_class: int = 0
    #: Technique-private fields.
    backing: Optional[Mapping] = None            # stack copy: backing store
    slot: Optional[IsomallocSlot] = None         # isomalloc: the whole slot
    frames: Optional[List[Frame]] = None         # aliasing: private frames
    resident: bool = True

    @property
    def top(self) -> int:
        """Initial stack pointer (one past the highest stack byte)."""
        return self.base + self.size

    @property
    def live_bytes(self) -> int:
        """Bytes of meaningful stack data — what stack copying must move.

        On a real machine everything below the stack pointer is garbage;
        only ``[top - live_bytes, top)`` is preserved across a stack-copy
        deactivation, exactly as on hardware.
        """
        return min(self.size, self.used_bytes + self.extra_live)

    def consume(self, nbytes: int) -> None:
        """Model alloca(): mark ``nbytes`` more of the stack as live."""
        if self.used_bytes + nbytes > self.size:
            raise ThreadError(
                f"stack overflow: {self.used_bytes}+{nbytes} > {self.size}")
        self.used_bytes += nbytes


class StackManager(ABC):
    """Interface shared by the three stack techniques."""

    #: Short name used in reports and benchmark output.
    technique: str = "?"
    #: Whether several threads of this manager can be active at once
    #: (isomalloc yes; the single-address techniques no — the paper's
    #: SMP limitation of stack copying and aliasing).
    concurrent_active: bool = False

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int):
        self.space = space
        self.profile = profile
        self.stack_bytes = space.layout.page_align_up(stack_bytes)
        self.switch_in_count = 0
        self.switch_out_count = 0
        self._next_tid = 0

    # -- lifecycle ------------------------------------------------------------

    @abstractmethod
    def create_stack(self) -> StackRecord:
        """Allocate a new thread stack; returns its record."""

    @abstractmethod
    def destroy_stack(self, rec: StackRecord) -> None:
        """Release a thread stack."""

    # -- context switching -------------------------------------------------

    @abstractmethod
    def switch_in(self, rec: StackRecord) -> float:
        """Make ``rec`` the active stack; returns the modeled cost in ns."""

    @abstractmethod
    def switch_out(self, rec: StackRecord) -> float:
        """Deactivate ``rec``; returns the modeled cost in ns."""

    # -- migration -----------------------------------------------------------

    @abstractmethod
    def pack(self, rec: StackRecord) -> dict:
        """Produce a migration image for the stack (and slot, if owned)."""

    @abstractmethod
    def unpack(self, image: dict) -> StackRecord:
        """Rebuild a migrated stack on *this* manager's processor."""

    @abstractmethod
    def evacuate(self, rec: StackRecord) -> None:
        """Release local resources after :meth:`pack` (migrate-out)."""

    # -- shared helpers --------------------------------------------------------

    def _tid(self) -> int:
        self._next_tid += 1
        return self._next_tid

    def _image(self, rec: StackRecord, **body) -> dict:
        """A migration image: the fields every technique ships, plus the
        technique's own ``body`` (stack contents or the whole slot)."""
        return {"technique": self.technique, "size": rec.size,
                "used_bytes": rec.used_bytes, "extra_live": rec.extra_live,
                **body}

    def _check_image(self, image: dict) -> None:
        if image["technique"] != self.technique:
            raise MigrationError(
                f"stack image is {image['technique']}, not {self.technique}")

    def _rebuild(self, image: dict) -> StackRecord:
        """A fresh local stack carrying ``image``'s bookkeeping (the
        single-address techniques, whose stacks are all one size)."""
        self._check_image(image)
        if image["size"] != self.stack_bytes:
            raise MigrationError("stack size mismatch across processors")
        rec = self.create_stack()
        rec.used_bytes = image["used_bytes"]
        rec.extra_live = image.get("extra_live", 0)
        return rec

    def stack_read(self, rec: StackRecord, offset: int, length: int) -> bytes:
        """Read the *active or resident* stack contents of a thread."""
        return self.space.read(rec.base + offset, length)

    def stack_write(self, rec: StackRecord, offset: int, payload: bytes) -> None:
        """Write into a thread's stack at ``offset`` from the base."""
        self.space.write(rec.base + offset, payload)


class StackCopyStacks(StackManager):
    """Naive migratable threads: one stack address, copy in and out (§3.4.1).

    All threads on all processors execute from one system-wide stack
    address, so migration is just shipping the saved copy.  The technique
    requires the platform to place that common address identically on every
    node — impossible under stack-address randomization, which is why the
    constructor checks ``profile.fixed_stack_base``.
    """

    technique = "stack_copy"
    concurrent_active = False

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int = 64 * 1024):
        super().__init__(space, profile, stack_bytes)
        if not profile.fixed_stack_base:
            raise ThreadError(
                f"{profile.name}: stack-copy threads need a fixed system "
                f"stack base (stack-smashing protection randomizes it)")
        # The common execution address: deterministic, so every processor
        # sharing the layout derives the same one.
        stack_region = space.layout.regions["stack"]
        self.common = space.mmap(self.stack_bytes, addr=stack_region.start,
                                 tag="common-stack")
        self.active: Optional[StackRecord] = None

    def create_stack(self) -> StackRecord:
        backing = self.space.mmap(self.stack_bytes, region="heap",
                                  tag="stackcopy-backing")
        return StackRecord(tid=self._tid(), base=self.common.start,
                           size=self.stack_bytes, used_bytes=0,
                           backing=backing)

    def destroy_stack(self, rec: StackRecord) -> None:
        if self.active is rec:
            self.active = None
        if rec.backing is not None:
            self.space.munmap(rec.backing)
            rec.backing = None

    def switch_in(self, rec: StackRecord) -> float:
        if self.active is rec:
            return 0.0
        if self.active is not None:
            raise ThreadError("stack-copy: another thread is still active "
                              "(only one can run per address space)")
        assert rec.backing is not None
        cost = 0.0
        live = rec.live_bytes
        if live:
            # Live stack data sits at the top of the stack.
            off = self.stack_bytes - live
            data = self.space.read(rec.backing.start + off, live)
            self.space.write(self.common.start + off, data)
            self.space.bytes_copied += live
            cost += self.profile.mem.memcpy_cost(live)
        self.active = rec
        self.switch_in_count += 1
        return cost

    def switch_out(self, rec: StackRecord) -> float:
        if self.active is not rec:
            raise ThreadError("stack-copy: switching out a non-active thread")
        assert rec.backing is not None
        cost = 0.0
        live = rec.live_bytes
        if live:
            off = self.stack_bytes - live
            data = self.space.read(self.common.start + off, live)
            self.space.write(rec.backing.start + off, data)
            self.space.bytes_copied += live
            cost += self.profile.mem.memcpy_cost(live)
        self.active = None
        self.switch_out_count += 1
        return cost

    def stack_read(self, rec: StackRecord, offset: int, length: int) -> bytes:
        """Read a thread's stack — from the common address if active,
        otherwise from its backing store."""
        if self.active is rec:
            return self.space.read(self.common.start + offset, length)
        assert rec.backing is not None
        return self.space.read(rec.backing.start + offset, length)

    def stack_write(self, rec: StackRecord, offset: int, payload: bytes) -> None:
        """Write a thread's stack wherever it currently lives."""
        if self.active is rec:
            self.space.write(self.common.start + offset, payload)
        else:
            assert rec.backing is not None
            self.space.write(rec.backing.start + offset, payload)

    def pack(self, rec: StackRecord) -> dict:
        if self.active is rec:
            raise MigrationError("cannot migrate the active stack-copy thread")
        assert rec.backing is not None
        return self._image(
            rec, contents=self.space.read(rec.backing.start, rec.size))

    def unpack(self, image: dict) -> StackRecord:
        rec = self._rebuild(image)
        assert rec.backing is not None
        self.space.write(rec.backing.start, image["contents"])
        return rec

    def evacuate(self, rec: StackRecord) -> None:
        self.destroy_stack(rec)


class IsomallocStacks(StackManager):
    """Isomalloc threads: globally unique stack and heap addresses (§3.4.2)."""

    technique = "isomalloc"
    concurrent_active = True

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 arena: IsomallocArena, pe: int,
                 stack_bytes: int = 64 * 1024):
        super().__init__(space, profile, stack_bytes)
        if not profile.has_mmap:
            raise ThreadError(
                f"{profile.name}: isomalloc needs mmap (Table 1: 'No' on "
                f"this machine)")
        self.arena = arena
        self.pe = pe

    def create_stack(self) -> StackRecord:
        slot = IsomallocSlot(self.arena, self.space, self.pe,
                             self.stack_bytes)
        tid = self._tid()
        return StackRecord(tid=tid, base=slot.stack_base,
                           size=self.stack_bytes, used_bytes=0, slot=slot,
                           address_class=tid)

    def destroy_stack(self, rec: StackRecord) -> None:
        if rec.slot is not None:
            rec.slot.destroy()
            rec.slot = None

    def switch_in(self, rec: StackRecord) -> float:
        # Nothing moves: the thread's addresses are exclusively its own.
        self.switch_in_count += 1
        return 0.0

    def switch_out(self, rec: StackRecord) -> float:
        self.switch_out_count += 1
        return 0.0

    def pack(self, rec: StackRecord) -> dict:
        assert rec.slot is not None
        return self._image(rec, slot=rec.slot.pack())

    def unpack(self, image: dict) -> StackRecord:
        self._check_image(image)
        slot = IsomallocSlot.adopt(self.arena, self.space, self.pe,
                                   image["slot"])
        tid = self._tid()
        return StackRecord(tid=tid, base=slot.stack_base,
                           size=image["size"],
                           used_bytes=image["used_bytes"],
                           extra_live=image["extra_live"], slot=slot,
                           address_class=tid)

    def evacuate(self, rec: StackRecord) -> None:
        assert rec.slot is not None
        rec.slot.evacuate()
        rec.slot = None


class MemoryAliasStacks(StackManager):
    """Memory-aliasing stacks: remap instead of copy (§3.4.3, Figure 3).

    Each thread's stack data lives in its own physical frames.  All threads
    execute from the common stack address; switching a thread in re-maps its
    frames under that address.  One mmap-class call per switch — slower than
    isomalloc, far faster than copying, and only one stack's worth of
    virtual address space per processor.
    """

    technique = "memory_alias"
    concurrent_active = False

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int = 64 * 1024,
                 base_addr: Optional[int] = None):
        super().__init__(space, profile, stack_bytes)
        if not (profile.has_mmap or profile.mmap_equivalent
                or profile.microkernel_remap_extension):
            raise ThreadError(
                f"{profile.name}: memory aliasing needs mmap, an mmap "
                f"equivalent, or a microkernel remap extension")
        stack_region = space.layout.regions["stack"]
        if base_addr is None:
            base_addr = stack_region.start
        self.common = space.mmap(self.stack_bytes, addr=base_addr,
                                 tag="alias-stack")
        # The common mapping's own initial frames back "no thread"; they are
        # parked here when a real thread's frames are mapped in.
        self._parked: Optional[List[Frame]] = None
        self.active: Optional[StackRecord] = None
        self.npages = self.stack_bytes // space.layout.page_size

    def create_stack(self) -> StackRecord:
        frames = self.space.physical.allocate_frames(self.npages)
        return StackRecord(tid=self._tid(), base=self.common.start,
                           size=self.stack_bytes, used_bytes=0,
                           frames=frames)

    def destroy_stack(self, rec: StackRecord) -> None:
        if self.active is rec:
            self._switch_out_frames(rec)
        if rec.frames is not None:
            self.space.physical.free_frames(rec.frames)
            rec.frames = None

    def switch_in(self, rec: StackRecord) -> float:
        if self.active is rec:
            return 0.0
        if self.active is not None:
            raise ThreadError("memory-alias: another thread is still active")
        assert rec.frames is not None
        displaced = self.space.remap_frames(self.common, rec.frames)
        if self._parked is None:
            self._parked = displaced
        rec.frames = None           # frames are now under the common mapping
        self.active = rec
        self.switch_in_count += 1
        return self.profile.mem.remap_cost(self.npages)

    def switch_out(self, rec: StackRecord) -> float:
        if self.active is not rec:
            raise ThreadError("memory-alias: switching out a non-active thread")
        self._switch_out_frames(rec)
        self.switch_out_count += 1
        # The switch-out remap is folded into the next switch-in (one mmap
        # call swaps both), so only a bookkeeping cost is charged here.
        return 0.0

    def _switch_out_frames(self, rec: StackRecord) -> None:
        assert self._parked is not None
        rec.frames = self.space.remap_frames(self.common, self._parked)
        self._parked = None
        self.active = None

    def stack_read(self, rec: StackRecord, offset: int, length: int) -> bytes:
        """Read a thread's stack — via the common mapping if active,
        directly from its private frames otherwise."""
        if self.active is rec:
            return self.space.read(self.common.start + offset, length)
        assert rec.frames is not None
        return self._frames_rw(rec.frames, offset, length, None)

    def stack_write(self, rec: StackRecord, offset: int, payload: bytes) -> None:
        """Write a thread's stack wherever its frames currently are."""
        if self.active is rec:
            self.space.write(self.common.start + offset, payload)
        else:
            assert rec.frames is not None
            self._frames_rw(rec.frames, offset, len(payload), payload)

    def _frames_rw(self, frames: List[Frame], offset: int, length: int,
                   payload: Optional[bytes]) -> bytes:
        page = self.space.layout.page_size
        out = bytearray()
        cursor = offset
        remaining = length
        written = 0
        while remaining > 0:
            idx, off = divmod(cursor, page)
            chunk = min(remaining, page - off)
            if payload is None:
                out += frames[idx].read(off, chunk)
            else:
                frames[idx].write(off, payload[written:written + chunk])
            cursor += chunk
            remaining -= chunk
            written += chunk
        return bytes(out)

    def pack(self, rec: StackRecord) -> dict:
        if self.active is rec:
            raise MigrationError("cannot migrate the active aliased thread")
        assert rec.frames is not None
        page = self.space.layout.page_size
        image = self._image(
            rec, contents=b"".join(f.read(0, page) for f in rec.frames))
        if not rec.extra_live:
            # Aliased images have never carried a zero register-image
            # size, and a checkpoint's simulated disk time is its blob
            # length: shipping the zero would move every pinned
            # memory_alias makespan.
            del image["extra_live"]
        return image

    def unpack(self, image: dict) -> StackRecord:
        rec = self._rebuild(image)
        page = self.space.layout.page_size
        assert rec.frames is not None
        for i, frame in enumerate(rec.frames):
            frame.write(0, image["contents"][i * page:(i + 1) * page])
        return rec

    def evacuate(self, rec: StackRecord) -> None:
        self.destroy_stack(rec)


def make_stack_manager(technique: str, space: AddressSpace,
                       profile: PlatformProfile, stack_bytes: int,
                       arena: IsomallocArena, pe: int = 0) -> StackManager:
    """The manager for one Section 3.4 technique, by its ``technique``
    name.  ``arena`` and ``pe`` are isomalloc's (the machine-wide slot
    partition and this processor's range in it); the single-address
    techniques ignore them."""
    if technique == "isomalloc":
        return IsomallocStacks(space, profile, arena, pe,
                               stack_bytes=stack_bytes)
    if technique == "stack_copy":
        return StackCopyStacks(space, profile, stack_bytes=stack_bytes)
    if technique == "memory_alias":
        return MemoryAliasStacks(space, profile, stack_bytes=stack_bytes)
    raise ThreadError(f"unknown stack technique {technique!r}")
