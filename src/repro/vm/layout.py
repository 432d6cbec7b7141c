"""Virtual-address-space layouts for 32- and 64-bit simulated machines.

The layout carves the virtual address space into named regions.  The key
region for this paper is the **isomalloc region**: "normally the largest
space available lies between the process stack and the heap" (Section 3.4.2,
Figure 2).  On 32-bit machines that region is small enough that isomalloc
runs out of address space with a few thousand megabyte-scale threads, which
is the motivation for memory-aliasing stacks; on 64-bit machines it is
effectively unbounded.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.errors import VMError

__all__ = ["Region", "AddressSpaceLayout", "KB", "MB", "GB", "TB"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB


@dataclass(frozen=True)
class Region:
    """A named, contiguous range ``[start, start+size)`` of virtual addresses."""

    name: str
    start: int
    size: int

    @property
    def end(self) -> int:
        """One past the last address in the region."""
        return self.start + self.size

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside the region."""
        return self.start <= address < self.end

    def overlaps(self, other: "Region") -> bool:
        """Whether two regions share any address."""
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Region {self.name} [{self.start:#x}, {self.end:#x})>"


class AddressSpaceLayout:
    """Region map plus word size and page size for one machine model.

    Standard regions (all layouts define these names):

    ``text``
        Program code; mapped read-execute.
    ``data``
        Global variables and the Global Offset Table.
    ``heap``
        Conventional (non-isomalloc) heap, grows upward.
    ``iso``
        The isomalloc region, partitioned cluster-wide into per-processor
        slots (Figure 2).
    ``stack``
        The system stack area.  The *common stack address* used by
        stack-copying and memory-aliasing threads lives here.
    """

    def __init__(self, word_bits: int, page_size: int, regions: Iterable[Region]):
        if word_bits not in (32, 64):
            raise VMError(f"word_bits must be 32 or 64, got {word_bits}")
        self.word_bits = word_bits
        self.word_bytes = word_bits // 8
        self.page_size = page_size
        self.regions: Dict[str, Region] = {}
        for region in regions:
            if region.start % page_size or region.size % page_size:
                raise VMError(f"region {region.name} is not page aligned")
            for existing in self.regions.values():
                if existing.overlaps(region):
                    raise VMError(f"region {region.name} overlaps {existing.name}")
            self.regions[region.name] = region
        for required in ("text", "data", "heap", "iso", "stack"):
            if required not in self.regions:
                raise VMError(f"layout missing required region {required!r}")
        #: The regions in address order, and their starts: finding the
        #: region of an address is a bisect.
        self._ordered = sorted(self.regions.values(), key=lambda r: r.start)
        self._starts = [r.start for r in self._ordered]

    # -- address helpers ----------------------------------------------------

    def page_of(self, address: int) -> int:
        """Virtual page number containing ``address``."""
        return address // self.page_size

    def page_base(self, address: int) -> int:
        """Base address of the page containing ``address``."""
        return address - (address % self.page_size)

    def page_align_up(self, length: int) -> int:
        """Round ``length`` up to a whole number of pages."""
        return -(-length // self.page_size) * self.page_size

    def pages_for(self, length: int) -> int:
        """Number of pages needed to cover ``length`` bytes."""
        return -(-length // self.page_size)

    def region_of(self, address: int) -> Region:
        """Return the region containing ``address``.

        Raises
        ------
        VMError
            If the address is outside every region.
        """
        i = bisect.bisect_right(self._starts, address) - 1
        if i >= 0:
            region = self._ordered[i]
            if address < region.end:
                return region
        raise VMError(f"address {address:#x} falls outside every region")

    # -- canned layouts -----------------------------------------------------

    @classmethod
    def small32(cls, page_size: int = 4096) -> "AddressSpaceLayout":
        """A conventional 32-bit layout (x86 Linux flavored).

        1 GiB is reserved for the kernel (not represented as a usable
        region), and roughly 2 GiB between heap and stack forms the
        isomalloc region — enough that megabyte-scale thread slots exhaust
        it after a few thousand threads, per Section 3.4.2.
        """
        return cls(
            word_bits=32,
            page_size=page_size,
            regions=[
                # Starts are 64 KiB-aligned so large-page machine models
                # (e.g. the page-size ablation) can share the layout.
                Region("text", 0x0805_0000, 16 * MB),
                Region("data", 0x0905_0000, 64 * MB),
                Region("heap", 0x0D05_0000, 256 * MB),
                Region("iso", 0x2000_0000, 0x9E00_0000),  # ~2.47 GiB
                Region("stack", 0xBE00_0000, 16 * MB),
            ],
        )

    @classmethod
    def large64(cls, page_size: int = 4096) -> "AddressSpaceLayout":
        """A 64-bit layout with a terabyte-scale isomalloc region.

        Matches the paper's observation that 64-bit machines "normally have
        terabytes of virtual memory space available, and so never suffer
        from this problem".
        """
        return cls(
            word_bits=64,
            page_size=page_size,
            regions=[
                Region("text", 0x0000_0000_0040_0000, 64 * MB),
                Region("data", 0x0000_0000_0440_0000, 1 * GB),
                Region("heap", 0x0000_0000_4440_0000, 63 * GB),
                Region("iso", 0x0000_1000_0000_0000, 16 * TB),
                Region("stack", 0x0000_7000_0000_0000, 1 * GB),
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AddressSpaceLayout {self.word_bits}-bit, {len(self.regions)} regions>"
