"""The paper's primary contribution: migratable user-level threads.

This package implements, inside the simulated machine of :mod:`repro.sim`
and :mod:`repro.vm`:

* minimal register-file context switching (paper Figure 10),
* user-level threads and a Converse-style scheduler (``CthCreate`` /
  ``CthYield`` / ``CthSuspend`` / ``CthAwaken``, Section 2.3),
* the three migratable-stack techniques of Section 3.4 — stack copying,
  isomalloc, and memory-aliasing stacks,
* the PUP pack/unpack framework (Section 3.1.1),
* swap-global GOT privatization of global variables (Section 3.1.1),
* and the thread migrator that packs a thread's simulated memory, ships it
  through the cluster network, and reconstructs it on the destination
  processor with every simulated pointer still valid.
"""

from repro.core.context import MinimalSwap, RegisterFile, SWAP32, SWAP64
from repro.core.pup import (PackingPupper, Puppable, PupError, SizingPupper,
                            UnpackingPupper, pup_pack, pup_register,
                            pup_unpack)
from repro.core.swapglobal import GlobalRegistry, GlobalOffsetTable
from repro.core.isomalloc import IsomallocArena, IsomallocSlot
from repro.core.stacks import (IsomallocStacks, MemoryAliasStacks,
                               StackCopyStacks, StackManager,
                               make_stack_manager)
from repro.core.stacks_ext import MultiSlotAliasStacks
from repro.core.thread import ThreadState, UThread
from repro.core.scheduler import CthScheduler
from repro.core.migration import ThreadMigrator
from repro.core.checkpoint import Checkpointer, CheckpointRecord, DiskModel
from repro.core.smp import SmpResult, SmpRunner

__all__ = [
    "MinimalSwap",
    "RegisterFile",
    "SWAP32",
    "SWAP64",
    "Puppable",
    "PupError",
    "SizingPupper",
    "PackingPupper",
    "UnpackingPupper",
    "pup_pack",
    "pup_unpack",
    "pup_register",
    "GlobalRegistry",
    "GlobalOffsetTable",
    "IsomallocArena",
    "IsomallocSlot",
    "StackManager",
    "StackCopyStacks",
    "IsomallocStacks",
    "MemoryAliasStacks",
    "make_stack_manager",
    "MultiSlotAliasStacks",
    "ThreadState",
    "UThread",
    "CthScheduler",
    "ThreadMigrator",
    "Checkpointer",
    "CheckpointRecord",
    "DiskModel",
    "SmpRunner",
    "SmpResult",
]
