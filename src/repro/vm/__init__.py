"""Simulated virtual-memory substrate.

This package provides the machinery the paper's migration techniques are
defined in terms of: physical page frames, per-address-space mappings (one
extent each, a frame slot per page), ``mmap``/``munmap``/``mremap``, and
32-/64-bit virtual-address-space layouts with a dedicated *isomalloc
region* (paper Figure 2).

The substrate is deliberately faithful at the level the paper cares about:

* virtual addresses are plain integers and pointers stored *inside*
  simulated memory are just encoded addresses, so pointer validity across a
  migration is a mechanically checkable property;
* physical frames are distinct from virtual mappings, so memory-aliasing
  stacks ("map the thread's frames at the common stack address instead of
  copying") are a real operation;
* address-space exhaustion is modeled, so isomalloc's 32-bit scalability
  limit (Section 3.4.2) actually occurs.
"""

from repro.vm.physical import Frame, PhysicalMemory
from repro.vm.layout import AddressSpaceLayout, Region
from repro.vm.addrspace import AddressSpace, Mapping, Protection
from repro.vm.costs import MemoryCostModel

__all__ = [
    "Frame",
    "PhysicalMemory",
    "Protection",
    "AddressSpaceLayout",
    "Region",
    "AddressSpace",
    "Mapping",
    "MemoryCostModel",
]
