"""User-level threads as flows of control (paper Sections 2.3, 4.1).

Two variants are measured in Figures 4–8:

* **Cth** (Converse threads): non-migratable user-level threads.  A switch
  is a register swap plus a trivial scheduler operation — no kernel entry.
* **AMPI threads**: migratable user-level threads (isomalloc stacks plus
  swap-global), scheduled through the AMPI runtime's extra layer.  Slightly
  heavier than Cth but still far below kernel mechanisms.

Both create and tear down their flows a run at a time: each run asks the
layers under it (the per-user cap, the isomalloc arena, the address
space, physical memory) for as many flows as all of them can grant, in
one call each.  A run that meets a refusal ends with a run of one flow,
which raises where the one-at-a-time road raised.
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

    def _create_run(self, count: int) -> None:
        space = self.processor.space
        ns = self.profile.uthread_create_ns
        while count > 0:
            # The flows every layer can grant; none left means a run of
            # one, refused by the first layer that refuses it.
            run = max(1, min(self._uthread_room(count),
                             space.reservable(self.stack_bytes, "iso"),
                             space.physical.frames_free))
            self.flows += self._reserve_stacks(run, self.stack_bytes,
                                               "cth-stack")
            self.processor.charge_run(ns, run)
            count -= run

    def _destroy_run(self) -> None:
        self._release_stacks(self.flows)
        self.flows.clear()

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

    def _create_run(self, count: int) -> None:
        arena = self.arena
        frames = self.processor.space.physical
        ns = self.profile.uthread_create_ns + self.profile.ampi_overhead_ns
        while count > 0:
            run = max(1, min(self._uthread_room(count), arena.slots_free(0),
                             frames.frames_free))
            bases = arena.allocate_slots(0, run)
            # The whole slot's virtual range is claimed, exactly as
            # isomalloc reserves it cluster-wide; only the first stack
            # page is faulted.
            try:
                self.flows += self._reserve_stacks(
                    run, arena.slot_bytes, "ampi-slot", bases=bases)
            except VMError:
                arena.release_slots(reversed(bases))
                raise
            self.processor.charge_run(ns, run)
            count -= run

    def _destroy_run(self) -> None:
        flows = self.flows
        self._release_stacks(flows)
        # Each stack was mapped at its slot's base.
        self.arena.release_slots(stack.start for stack, _ in reversed(flows))
        flows.clear()

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One MPI_Yield(): Cth switch + GOT swap + AMPI scheduler layer."""
        n = n_flows if n_flows is not None else self.n_flows
        return (self.profile.uthread_switch_ns
                + self.profile.ampi_overhead_ns
                + self.cache_penalty_ns(n))
