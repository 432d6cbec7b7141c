"""Memory-operation cost models (virtual nanoseconds).

The paper reports wall-clock microbenchmarks on 2003–2006 hardware.  We
reproduce the *shapes* of those measurements by charging each mechanism for
the operations it actually performs, using per-platform constants.  The
constants live here and in :mod:`repro.sim.platform`; the operation counts
come from the real behaviour of :class:`repro.vm.AddressSpace` and the stack
managers.

All costs are expressed in integer virtual nanoseconds so simulations are
exactly deterministic and platform-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryCostModel"]


@dataclass(frozen=True)
class MemoryCostModel:
    """Costs of memory-system operations on one simulated platform.

    Attributes
    ----------
    memcpy_bytes_per_ns:
        Sustained copy bandwidth.  Stack-copying threads pay
        ``2 * stack_bytes / memcpy_bytes_per_ns`` per switch (copy out the
        old thread, copy in the new one).
    syscall_ns:
        Fixed cost of entering and leaving the kernel once.  The paper notes
        that "if a user-level thread context switch involves even one system
        call, most of the speed advantage of user-level threads is lost"
        (Section 4.3) — this constant is why.
    mmap_fixed_ns:
        Cost of one mmap/mremap call beyond the bare syscall (VMA bookkeeping).
    per_page_map_ns:
        Incremental cost per page of a mapping operation (page-table edits).
        This term gives memory-aliasing stacks their slow growth with stack
        size in Figure 9.
    tlb_flush_ns:
        Cost of the TLB shootdown a remap or address-space switch implies.
    page_zero_ns:
        Cost of zeroing a fresh page at allocation.
    """

    memcpy_bytes_per_ns: float = 2.0       # ~2 GB/s, early-2000s DDR
    syscall_ns: float = 300.0
    mmap_fixed_ns: float = 600.0
    per_page_map_ns: float = 55.0
    tlb_flush_ns: float = 500.0
    page_zero_ns: float = 800.0

    def memcpy_cost(self, nbytes: int) -> float:
        """Virtual ns to copy ``nbytes``."""
        return nbytes / self.memcpy_bytes_per_ns

    def mmap_cost(self, npages: int) -> float:
        """Virtual ns for one mapping call covering ``npages`` pages."""
        return self.syscall_ns + self.mmap_fixed_ns + self.per_page_map_ns * npages

    def remap_cost(self, npages: int) -> float:
        """Virtual ns for a remap (memory-aliasing switch) of ``npages``.

        A remap is a mapping call plus the TLB flush the aliasing requires.
        """
        return self.mmap_cost(npages) + self.tlb_flush_ns

    def allocation_cost(self, npages: int) -> float:
        """Virtual ns to allocate and zero ``npages`` fresh pages."""
        return self.mmap_cost(npages) + npages * self.page_zero_ns
