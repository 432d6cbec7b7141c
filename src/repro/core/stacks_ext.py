"""Beyond the paper: k-slot memory-aliasing stacks.

The paper's memory-aliasing technique (§3.4.3) uses *one* common stack
address, so it shares stack copying's SMP limitation: one active thread per
address space.  The natural extension — flagged in DESIGN.md §6 as ours,
not the paper's — is a small *pool* of k common addresses.  Each thread is
pinned to one slot at creation (its address never changes, so its pointers
stay valid and migration works exactly as before, to the same slot index on
the destination), threads in different slots can run simultaneously, and
the virtual-address cost is k stacks instead of one.

``k = 1`` reproduces the paper's technique exactly; ``k = cores`` removes
the SMP ceiling at a k-fold VA cost still far below isomalloc's
total-threads-proportional consumption.  The SMP ablation quantifies the
interpolation.
"""

from __future__ import annotations

from repro.errors import MigrationError, ThreadError
from repro.core.stacks import MemoryAliasStacks, StackRecord
from repro.sim.platform import PlatformProfile
from repro.vm.addrspace import AddressSpace

__all__ = ["MultiSlotAliasStacks"]


class MultiSlotAliasStacks(MemoryAliasStacks):
    """Memory aliasing with ``slots`` independent common stack addresses.

    Everything but the choice of slot is :class:`MemoryAliasStacks`': a
    thread's slot is its ``address_class``, picked round-robin at creation
    and carried in its image.
    """

    technique = "memory_alias_k"
    concurrent_active = True     # up to ``slots`` threads at once

    def __init__(self, space: AddressSpace, profile: PlatformProfile,
                 stack_bytes: int = 64 * 1024, slots: int = 2):
        if slots <= 0:
            raise ThreadError("need at least one alias slot")
        stack_region = space.layout.regions["stack"]
        stack_bytes = space.layout.page_align_up(stack_bytes)
        stride = stack_bytes + space.layout.page_size  # guard gap
        if slots * stride > stack_region.size:
            raise ThreadError(
                f"{slots} alias slots of {stack_bytes} bytes do not "
                f"fit the stack region")
        super().__init__(space, profile, stack_bytes,
                         [stack_region.start + i * stride
                          for i in range(slots)])
        self._next_slot = 0

    def create_stack(self) -> StackRecord:
        index = self._next_slot
        self._next_slot = (index + 1) % len(self.commons)
        return self._create(index)

    def pack(self, rec: StackRecord) -> dict:
        image = super().pack(rec)
        image["slot_index"] = rec.address_class
        return image

    def unpack(self, image: dict) -> StackRecord:
        index = image.get("slot_index", 0)
        if index >= len(self.commons):
            raise MigrationError(
                f"destination has only {len(self.commons)} alias slots; "
                f"thread is pinned to slot {index}")
        return self._rebuild(image, index)
