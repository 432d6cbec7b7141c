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
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import MigrationError, ThreadError
from repro.core.isomalloc import IsomallocArena, IsomallocSlot
from repro.sim.platform import PlatformProfile
from repro.vm.addrspace import AddressSpace, Mapping
from repro.vm.physical import Frame

__all__ = ["StackRecord", "StackManager", "StackCopyStacks",
           "IsomallocStacks", "MemoryAliasStacks", "make_stack_manager"]

#: Envelope and metadata every thread image pays on the wire.
_ENVELOPE_BYTES = 256



@dataclass
class StackRecord:
    """Per-thread stack bookkeeping handed out by a :class:`StackManager`.

    ``base``/``top`` are the addresses *the thread sees*; ``used_bytes``
    models how much of the stack is live (the alloca() knob of the paper's
    Figure 9 experiment) and is what stack copying pays to move.
    """

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
    #: What :meth:`support` asks of the platform, for the refusal message.
    needs: str = "?"

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int):
        if self.support(profile) == "No":
            raise ThreadError(
                f"{profile.name}: {self.technique} threads need "
                f"{self.needs} (Table 1: 'No' on this machine)")
        self.space = space
        self.profile = profile
        self.stack_bytes = space.layout.page_align_up(stack_bytes)

    @staticmethod
    @abstractmethod
    def support(profile: PlatformProfile) -> str:
        """This technique's Table 1 cell on ``profile``: "Yes", "Maybe"
        (the mechanism exists but we have not run it there) or "No".
        The constructor refuses exactly the "No" machines."""

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
    def image_bytes(self, image: dict) -> int:
        """Simulated wire size of an image :meth:`pack` produced."""

    @abstractmethod
    def unpack(self, image: dict) -> StackRecord:
        """Rebuild a migrated stack on *this* manager's processor."""

    @abstractmethod
    def evacuate(self, rec: StackRecord) -> None:
        """Release local resources after :meth:`pack` (migrate-out)."""

    # -- shared helpers --------------------------------------------------------

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

    def stack_read(self, rec: StackRecord, offset: int, length: int) -> bytes:
        """Read a thread's stack, ``offset`` bytes from its base."""
        return self.space.read(rec.base + offset, length)

    def stack_write(self, rec: StackRecord, offset: int, payload: bytes) -> None:
        """Write into a thread's stack at ``offset`` from the base."""
        self.space.write(rec.base + offset, payload)


class SingleAddressStacks(StackManager):
    """What stack copying and memory aliasing share (§3.4.1, §3.4.3).

    Every thread executes from a common stack address, so its stack bytes
    are in one of two places: under the common mapping while it is the
    active thread, in its private home otherwise.  A technique says only
    where that home is (:meth:`_home`) and what a switch moves between the
    two; reading, writing, packing, unpacking and evacuating a stack are
    the same for both.  ``commons`` and ``active`` are indexed by address
    class: one entry, except under k-slot aliasing.
    """

    #: Whether an image of a thread with no register image on its stack
    #: says so (``"extra_live": 0``) or omits the key.
    ships_zero_extra_live = True

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int, tag: str,
                 addrs: Optional[Sequence[int]] = None):
        super().__init__(space, profile, stack_bytes)
        if addrs is None:
            # Deterministic, so every processor sharing the layout derives
            # the same common execution address.
            addrs = [space.layout.regions["stack"].start]
        self.commons = [space.mmap(self.stack_bytes, addr=addr, tag=tag)
                        for addr in addrs]
        self.active: List[Optional[StackRecord]] = [None] * len(self.commons)

    @abstractmethod
    def _create(self, slot: int) -> StackRecord:
        """A new stack executing from ``commons[slot]``."""

    @abstractmethod
    def _home(self, rec: StackRecord, offset: int, length: int,
              payload: Optional[bytes] = None) -> bytes:
        """Read ``length`` bytes of an *inactive* thread's stack from where
        the technique keeps them — or, given ``payload``, write it there."""

    def create_stack(self) -> StackRecord:
        return self._create(0)

    def stack_read(self, rec: StackRecord, offset: int, length: int) -> bytes:
        """Read a thread's stack wherever it currently lives."""
        if self.active[rec.address_class] is rec:
            return self.space.read(rec.base + offset, length)
        return self._home(rec, offset, length)

    def stack_write(self, rec: StackRecord, offset: int, payload: bytes) -> None:
        """Write a thread's stack wherever it currently lives."""
        if self.active[rec.address_class] is rec:
            self.space.write(rec.base + offset, payload)
        else:
            self._home(rec, offset, len(payload), payload)

    def pack(self, rec: StackRecord) -> dict:
        if self.active[rec.address_class] is rec:
            raise MigrationError(
                f"cannot migrate the active {self.technique} thread")
        image = self._image(rec, contents=self._home(rec, 0, rec.size))
        if not (rec.extra_live or self.ships_zero_extra_live):
            del image["extra_live"]
        return image

    def image_bytes(self, image: dict) -> int:
        return _ENVELOPE_BYTES + len(image["contents"])

    def unpack(self, image: dict) -> StackRecord:
        return self._rebuild(image, 0)

    def _rebuild(self, image: dict, slot: int) -> StackRecord:
        """A fresh local stack in address class ``slot`` carrying ``image``
        (refused before anything is allocated)."""
        self._check_image(image)
        if image["size"] != self.stack_bytes:
            raise MigrationError("stack size mismatch across processors")
        rec = self._create(slot)
        rec.used_bytes = image["used_bytes"]
        rec.extra_live = image.get("extra_live", 0)
        self._home(rec, 0, len(image["contents"]), image["contents"])
        return rec

    def evacuate(self, rec: StackRecord) -> None:
        self.destroy_stack(rec)


class StackCopyStacks(SingleAddressStacks):
    """Naive migratable threads: one stack address, copy in and out (§3.4.1).

    All threads on all processors execute from one system-wide stack
    address, so migration is just shipping the saved copy.  The technique
    requires the platform to place that common address identically on every
    node — impossible under stack-address randomization, which is what
    :meth:`support` checks (``profile.fixed_stack_base``).
    """

    technique = "stack_copy"
    needs = ("a fixed system stack base (stack-smashing protection "
             "randomizes it)")

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int = 64 * 1024):
        super().__init__(space, profile, stack_bytes, "common-stack")

    @staticmethod
    def support(profile: PlatformProfile) -> str:
        if not profile.fixed_stack_base:
            return "No"
        return "Yes" if profile.quickthreads_port else "Maybe"

    def _create(self, slot: int) -> StackRecord:
        backing = self.space.mmap(self.stack_bytes, region="heap",
                                  tag="stackcopy-backing")
        return StackRecord(base=self.commons[slot].start,
                           size=self.stack_bytes, used_bytes=0,
                           backing=backing)

    def destroy_stack(self, rec: StackRecord) -> None:
        if self.active[0] is rec:
            self.active[0] = None
        if rec.backing is not None:
            self.space.munmap(rec.backing)
            rec.backing = None

    def switch_in(self, rec: StackRecord) -> float:
        if self.active[0] is rec:
            return 0.0
        if self.active[0] is not None:
            raise ThreadError("stack-copy: another thread is still active "
                              "(only one can run per address space)")
        assert rec.backing is not None
        cost = 0.0
        live = rec.live_bytes
        if live:
            # Live stack data sits at the top of the stack.
            off = self.stack_bytes - live
            self.space.memcpy_in(rec.base + off, rec.backing.start + off,
                                 live)
            cost += self.profile.mem.memcpy_cost(live)
        self.active[0] = rec
        return cost

    def switch_out(self, rec: StackRecord) -> float:
        if self.active[0] is not rec:
            raise ThreadError("stack-copy: switching out a non-active thread")
        assert rec.backing is not None
        cost = 0.0
        live = rec.live_bytes
        if live:
            off = self.stack_bytes - live
            self.space.memcpy_in(rec.backing.start + off, rec.base + off,
                                 live)
            cost += self.profile.mem.memcpy_cost(live)
        self.active[0] = None
        return cost

    def _home(self, rec: StackRecord, offset: int, length: int,
              payload: Optional[bytes] = None) -> bytes:
        """An inactive thread's stack is in its backing mapping."""
        assert rec.backing is not None
        if payload is None:
            return self.space.read(rec.backing.start + offset, length)
        self.space.write(rec.backing.start + offset, payload)
        return b""


class IsomallocStacks(StackManager):
    """Isomalloc threads: globally unique stack and heap addresses (§3.4.2).

    A thread's bytes are always at its own addresses, so the base class's
    direct ``stack_read``/``stack_write`` serve active and inactive threads
    alike, and its image is the whole slot — stack, heap and allocator
    metadata — which is why this is the one technique with its own
    ``pack``/``unpack``/``evacuate``.
    """

    technique = "isomalloc"
    concurrent_active = True
    needs = "mmap or an equivalent mapping call"

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 arena: IsomallocArena, pe: int,
                 stack_bytes: int = 64 * 1024):
        super().__init__(space, profile, stack_bytes)
        self.arena = arena
        self.pe = pe
        #: Address classes handed out: every thread is its own.
        self._threads = 0

    @staticmethod
    def support(profile: PlatformProfile) -> str:
        if not (profile.has_mmap or profile.mmap_equivalent):
            return "No"
        return ("Yes" if profile.has_mmap and profile.isomalloc_impl
                else "Maybe")

    def _record(self, slot: IsomallocSlot, **fields) -> StackRecord:
        self._threads += 1
        return StackRecord(base=slot.stack_base, slot=slot,
                           address_class=self._threads, **fields)

    def create_stack(self) -> StackRecord:
        slot = IsomallocSlot(self.arena, self.space, self.pe,
                             self.stack_bytes)
        return self._record(slot, size=self.stack_bytes, used_bytes=0)

    def destroy_stack(self, rec: StackRecord) -> None:
        if rec.slot is not None:
            rec.slot.destroy()
            rec.slot = None

    def switch_in(self, rec: StackRecord) -> float:
        # Nothing moves: the thread's addresses are exclusively its own.
        return 0.0

    def switch_out(self, rec: StackRecord) -> float:
        return 0.0

    def pack(self, rec: StackRecord) -> dict:
        assert rec.slot is not None
        return self._image(rec, slot=rec.slot.pack())

    def image_bytes(self, image: dict) -> int:
        return _ENVELOPE_BYTES + IsomallocSlot.image_bytes(image["slot"])

    def unpack(self, image: dict) -> StackRecord:
        self._check_image(image)
        slot = IsomallocSlot.adopt(self.arena, self.space, self.pe,
                                   image["slot"])
        return self._record(slot, size=image["size"],
                            used_bytes=image["used_bytes"],
                            extra_live=image["extra_live"])

    def evacuate(self, rec: StackRecord) -> None:
        assert rec.slot is not None
        rec.slot.evacuate()
        rec.slot = None


class MemoryAliasStacks(SingleAddressStacks):
    """Memory-aliasing stacks: remap instead of copy (§3.4.3, Figure 3).

    Each thread's stack data lives in its own physical frames.  All threads
    execute from the common stack address; switching a thread in re-maps its
    frames under that address.  One mmap-class call per switch — slower than
    isomalloc, far faster than copying, and only one stack's worth of
    virtual address space per processor.
    """

    technique = "memory_alias"
    needs = "mmap, an mmap equivalent, or a microkernel remap extension"
    # Aliased images have never carried a zero register-image size, and a
    # checkpoint's simulated disk time is its blob length: shipping the
    # zero would move every pinned memory_alias makespan.
    ships_zero_extra_live = False

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int = 64 * 1024,
                 addrs: Optional[Sequence[int]] = None):
        super().__init__(space, profile, stack_bytes, "alias-stack", addrs)
        # Each common mapping's own initial frames back "no thread"; they
        # are parked here while a real thread's frames are mapped in.
        self._parked: List[Optional[List[Frame]]] = [None] * len(self.commons)
        self.npages = self.stack_bytes // space.layout.page_size

    @staticmethod
    def support(profile: PlatformProfile) -> str:
        if profile.has_mmap and profile.memalias_impl:
            return "Yes"
        if (profile.has_mmap or profile.mmap_equivalent
                or profile.microkernel_remap_extension):
            return "Maybe"
        return "No"

    def _create(self, slot: int) -> StackRecord:
        frames = self.space.physical.allocate_frames(self.npages)
        return StackRecord(base=self.commons[slot].start,
                           size=self.stack_bytes, used_bytes=0,
                           address_class=slot, frames=frames)

    def destroy_stack(self, rec: StackRecord) -> None:
        if self.active[rec.address_class] is rec:
            self._switch_out_frames(rec)
        if rec.frames is not None:
            self.space.physical.free_frames(rec.frames)
            rec.frames = None

    def switch_in(self, rec: StackRecord) -> float:
        slot = rec.address_class
        if self.active[slot] is rec:
            return 0.0
        if self.active[slot] is not None:
            raise ThreadError("memory-alias: another thread is still active")
        assert rec.frames is not None
        self._parked[slot] = self.space.remap_frames(self.commons[slot],
                                                     rec.frames)
        rec.frames = None           # frames are now under the common mapping
        self.active[slot] = rec
        return self.profile.mem.remap_cost(self.npages)

    def switch_out(self, rec: StackRecord) -> float:
        if self.active[rec.address_class] is not rec:
            raise ThreadError("memory-alias: switching out a non-active thread")
        self._switch_out_frames(rec)
        # The switch-out remap is folded into the next switch-in (one mmap
        # call swaps both), so only a bookkeeping cost is charged here.
        return 0.0

    def _switch_out_frames(self, rec: StackRecord) -> None:
        slot = rec.address_class
        assert self._parked[slot] is not None
        rec.frames = self.space.remap_frames(self.commons[slot],
                                             self._parked[slot])
        self._parked[slot] = None
        self.active[slot] = None

    def _home(self, rec: StackRecord, offset: int, length: int,
              payload: Optional[bytes] = None) -> bytes:
        """An inactive thread's stack is in its private frames, mapped
        nowhere: the pool loads or stores them as one run, whole image or
        a few bytes."""
        assert rec.frames is not None
        if payload is None:
            return self.space.physical.load(rec.frames, offset, length)
        self.space.physical.store(rec.frames, offset, payload)
        return b""


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
