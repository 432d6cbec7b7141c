"""User-level threads as flows of control (paper Sections 2.3, 4.1).

Two variants are measured in Figures 4–8:

* **Cth** (Converse threads): non-migratable user-level threads.  A switch
  is a register swap plus a trivial scheduler operation — no kernel entry.
* **AMPI threads**: migratable user-level threads (isomalloc stacks plus
  swap-global), scheduled through the AMPI runtime's extra layer.  Slightly
  heavier than Cth but still far below kernel mechanisms.
"""

from __future__ import annotations

from typing import Optional

from repro.core.isomalloc import IsomallocArena
from repro.errors import VMError
from repro.flows.base import FlowMechanism
from repro.sim.processor import Processor

__all__ = ["UserThreadFlow", "AmpiThreadFlow"]


class UserThreadFlow(FlowMechanism):
    """Cth user-level threads: CthCreate() / CthYield().

    Each flow owns a real stack mapping; there is no kernel object, so the
    only limits are memory — and on some systems an administrative
    per-user memory cap, which is how the IBM SP tops out near 15,000
    user-level threads in Table 2 (modeled via ``profile.max_uthreads``).
    """

    label = "cth"
    cache_weight = 1.0
    stack_bytes = 16 * 1024

    def _create(self, index: int) -> tuple:
        self._refuse_past_uthread_cap()
        payload = self._reserve_stack(self.stack_bytes, "cth-stack")
        self.processor.charge(self.profile.uthread_create_ns)
        return payload

    def _destroy(self, payload: tuple) -> None:
        self._release_stack(payload)

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One CthYield(): register swap + scheduler, entirely in user code."""
        n = n_flows if n_flows is not None else self.n_flows
        return self.profile.uthread_switch_ns + self.cache_penalty_ns(n)


class AmpiThreadFlow(FlowMechanism):
    """AMPI migratable threads: MPI_Yield() through the AMPI runtime.

    Implemented with isomalloc stack allocation on top of Cth (paper
    Section 4.1), so creation consumes a real isomalloc slot and the
    switch adds the GOT swap and AMPI scheduling layer.  No migrations
    occur during the benchmark, as in the paper.
    """

    label = "ampi"
    cache_weight = 1.1
    stack_bytes = 16 * 1024

    def __init__(self, processor: Processor,
                 arena: Optional[IsomallocArena] = None,
                 slot_bytes: int = 64 * 1024):
        super().__init__(processor)
        self.arena = arena or IsomallocArena(
            processor.layout, 1, slot_bytes=slot_bytes)

    def _create(self, index: int) -> tuple:
        self._refuse_past_uthread_cap()
        base = self.arena.allocate_slot(0)
        # The whole slot's virtual range is claimed, exactly as isomalloc
        # reserves it cluster-wide; only the first stack page is faulted.
        try:
            payload = self._reserve_stack(self.arena.slot_bytes, "ampi-slot",
                                          addr=base)
        except VMError:
            self.arena.release_slot(base)
            raise
        self.processor.charge(self.profile.uthread_create_ns
                              + self.profile.ampi_overhead_ns)
        return payload

    def _destroy(self, payload: tuple) -> None:
        self._release_stack(payload)
        # The stack was mapped at its slot's base.
        self.arena.release_slot(payload[0].start)

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One MPI_Yield(): Cth switch + GOT swap + AMPI scheduler layer."""
        n = n_flows if n_flows is not None else self.n_flows
        return (self.profile.uthread_switch_ns
                + self.profile.ampi_overhead_ns
                + self.cache_penalty_ns(n))
