"""Physical memory: page frames and the frame allocator.

Physical memory is a pool of fixed-size page frames.  Frames are the unit of
residency accounting: isomalloc reserves *virtual* ranges cluster-wide but
only assigns frames to locally-resident threads ("Addresses used by all
remote threads are claimed only in principle, but never actually allocated
physical memory unless that remote thread migrates in", paper Section 3.4.2).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import OutOfPhysicalMemory, VMError

__all__ = ["Frame", "PhysicalMemory"]


class Frame:
    """One physical page frame.

    A frame owns its backing :class:`bytearray` lazily: frames that have
    never been written report as zero-filled without allocating host memory,
    which lets tests build simulated machines with gigabytes of "physical"
    memory cheaply.
    """

    __slots__ = ("index", "page_size", "_data", "pinned", "allocated",
                 "refcount")

    def __init__(self, index: int, page_size: int):
        self.index = index
        self.page_size = page_size
        self._data: Optional[bytearray] = None
        #: Pinned frames may not be freed (used for kernel-reserved pages).
        self.pinned = False
        #: Whether the frame is currently handed out by its pool.
        self.allocated = True
        #: Owners sharing this frame (copy-on-write fork raises it).
        self.refcount = 1

    @property
    def data(self) -> bytearray:
        """Backing bytes, materialized on first touch."""
        if self._data is None:
            self._data = bytearray(self.page_size)
        return self._data

    @property
    def materialized(self) -> bool:
        """Whether the frame has host-memory backing yet."""
        return self._data is not None

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` within the frame."""
        if offset < 0 or offset + length > self.page_size:
            raise VMError(f"frame read out of range: {offset}+{length} > {self.page_size}")
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset:offset + length])

    def write(self, offset: int, payload: bytes) -> None:
        """Write ``payload`` at ``offset`` within the frame."""
        if offset < 0 or offset + len(payload) > self.page_size:
            raise VMError(f"frame write out of range: {offset}+{len(payload)} > {self.page_size}")
        self.data[offset:offset + len(payload)] = payload

    def zero(self) -> None:
        """Reset the frame to all-zero (drops host backing)."""
        self._data = None

    def copy_from(self, other: "Frame") -> None:
        """Copy another frame's contents into this one."""
        if other.page_size != self.page_size:
            raise VMError("frame size mismatch in copy_from")
        if other._data is None:
            self._data = None
        else:
            self.data[:] = other._data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "materialized" if self.materialized else "zero"
        return f"<Frame #{self.index} {state}>"


class PhysicalMemory:
    """A pool of physical page frames with a simple free-list allocator.

    Parameters
    ----------
    total_bytes:
        Size of simulated physical memory.  Must be a multiple of
        ``page_size``.
    page_size:
        Frame size in bytes (default 4 KiB, like the paper's x86 targets).
    """

    def __init__(self, total_bytes: int, page_size: int = 4096):
        if page_size <= 0 or page_size & (page_size - 1):
            raise VMError(f"page_size must be a power of two, got {page_size}")
        if total_bytes % page_size:
            raise VMError("total_bytes must be a multiple of page_size")
        self.page_size = page_size
        self.total_frames = total_bytes // page_size
        #: Every frame ever created; a frame's index is its position.
        self._frames: list[Frame] = []
        #: Freed frames, reused last-freed-first.
        self._free: list[Frame] = []
        #: Cumulative allocation statistics (never reset by free()).
        self.frames_allocated_ever = 0

    # -- capacity ----------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total simulated physical capacity in bytes."""
        return self.total_frames * self.page_size

    @property
    def frames_in_use(self) -> int:
        """Number of currently-allocated frames."""
        return len(self._frames) - len(self._free)

    @property
    def bytes_in_use(self) -> int:
        """Bytes of physical memory currently allocated."""
        return self.frames_in_use * self.page_size

    @property
    def frames_free(self) -> int:
        """Number of frames still available."""
        return self.total_frames - self.frames_in_use

    # -- allocation --------------------------------------------------------

    def allocate_frame(self) -> Frame:
        """Allocate one zeroed frame.

        Raises
        ------
        OutOfPhysicalMemory
            If the pool is exhausted.
        """
        if not self.frames_free:
            raise OutOfPhysicalMemory(
                f"physical memory exhausted: {self.total_frames} frames "
                f"({self.total_bytes} bytes) all in use"
            )
        return self.allocate_frames(1)[0]

    def allocate_frames(self, count: int) -> list[Frame]:
        """Allocate ``count`` zeroed frames, all-or-nothing.

        Freed frames are reused first, most recently freed first; the
        rest are created with the next unused indices.
        """
        free = self._free
        created = len(self._frames)
        available = self.total_frames - created + len(free)
        if count > available:
            raise OutOfPhysicalMemory(
                f"requested {count} frames but only {available} free"
            )
        frames: list[Frame] = []
        if free and count > 0:
            # The tail of the free list, reversed: the order pop() gave.
            frames = free[:-count - 1:-1]
            del free[-len(frames):]
            for frame in frames:
                frame._data = None
                frame.allocated = True
                frame.refcount = 1
        if len(frames) < count:
            page_size = self.page_size
            fresh = [Frame(index, page_size) for index in
                     range(created, created + count - len(frames))]
            self._frames += fresh
            frames += fresh
        self.frames_allocated_ever += len(frames)
        return frames

    def free_frame(self, frame: Frame) -> None:
        """Return a frame to the pool."""
        self.free_frames((frame,))

    def share_frame(self, frame: Frame) -> Frame:
        """Add an owner to a frame (copy-on-write sharing)."""
        if (frame.index >= len(self._frames)
                or self._frames[frame.index] is not frame
                or not frame.allocated):
            raise VMError(f"cannot share frame #{frame.index}")
        frame.refcount += 1
        return frame

    # -- loads and stores over a run of frames ----------------------------
    # ``frames`` laid end to end, ``offset`` counted from the first one's
    # base: an address space's mapping, or a thread's private stack frames
    # that are mapped nowhere.  The caller checks the range is resident.

    def load(self, frames: Sequence[Frame], offset: int,
             length: int) -> bytes:
        """The ``length`` bytes at ``offset`` of ``frames``, copied once.
        A frame nobody wrote reads as zeros and stays unmaterialized."""
        if length < 0:
            raise VMError(f"load of negative length {length}")
        if not length:
            return b""
        page = self.page_size
        first = offset // page
        last = (offset + length - 1) // page
        bufs = [frame._data for frame in frames[first:last + 1]]
        if None in bufs:
            zero = bytes(page)
            bufs = [zero if b is None else b for b in bufs]
        offset -= first * page
        if offset or length != len(bufs) * page:
            tail = offset + length - (len(bufs) - 1) * page
            if len(bufs) == 1:
                bufs[0] = memoryview(bufs[0])[offset:tail]
            else:
                bufs[0] = memoryview(bufs[0])[offset:]
                bufs[-1] = memoryview(bufs[-1])[:tail]
        return b"".join(bufs)

    def store(self, frames: Sequence[Frame], offset: int,
              payload: bytes) -> None:
        """Write ``payload`` at ``offset`` of ``frames``: one slice-assign
        per page; a whole page onto a frame nobody wrote becomes that
        frame's buffer without a zero-fill first."""
        view = memoryview(payload)
        end = len(view)
        if not end:
            return
        page = self.page_size
        first, offset = divmod(offset, page)
        done = 0
        for frame in frames[first:first + (offset + end + page - 1) // page]:
            stop = done + page - offset
            if stop > end:
                stop = end
            data = frame._data
            if data is None and stop - done == page:
                frame._data = bytearray(view[done:stop])
            else:
                if data is None:
                    data = frame._data = bytearray(page)
                data[offset:offset + stop - done] = view[done:stop]
            done = stop
            offset = 0

    def free_frames(self, frames: Iterable[Frame]) -> None:
        """Return several frames to the pool, in order."""
        pool = self._frames
        created = len(pool)
        release = self._free.append
        for frame in frames:
            if frame.pinned:
                raise VMError(f"cannot free pinned frame #{frame.index}")
            if frame.index >= created or pool[frame.index] is not frame:
                raise VMError(
                    f"frame #{frame.index} does not belong to this pool")
            if not frame.allocated:
                raise VMError(f"double free of frame #{frame.index}")
            if frame.refcount > 1:
                # A shared (COW) frame: drop one owner, keep the memory.
                frame.refcount -= 1
                continue
            frame._data = None
            frame.allocated = False
            release(frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PhysicalMemory {self.frames_in_use}/{self.total_frames} frames "
                f"({self.page_size}B pages)>")
