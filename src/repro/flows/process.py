"""Processes as flows of control (paper Section 2.1)."""

from __future__ import annotations

from typing import Optional

from repro.flows.base import FlowHandle, FlowMechanism
from repro.sim.processor import Processor

__all__ = ["ProcessFlow"]


class ProcessFlow(FlowMechanism):
    """fork()-created processes yielding with sched_yield().

    Each flow is a real child address space produced by
    :meth:`~repro.vm.AddressSpace.fork_copy` — "the substantial amount of
    per-process kernel state increases the amount of memory used by each
    process, and increases the overhead of process creation and switching".
    Creation hits the platform's per-user process limit (Table 2).
    """

    label = "process"
    limiting_factor = "ulimit/kernel"
    cache_weight = 1.6          # an address-space switch re-touches the most

    def __init__(self, processor: Processor):
        super().__init__(processor)
        #: Modeled per-process kernel state, for memory accounting (bytes).
        self.kernel_state_bytes = 16 * 1024

    def _create(self, index: int) -> FlowHandle:
        self.processor.kernel.fork()
        # Modern fork is copy-on-write: creation pays kernel work plus
        # page-table duplication; the page copies come later, at first
        # write (see repro.vm's cow_breaks accounting).
        child = self.processor.space.fork_copy(f"child{index}", cow=True)
        space = self.processor.space
        pte_ns = (self.profile.mem.per_page_map_ns
                  * (space.resident_bytes // space.layout.page_size))
        kernel_copy_ns = self.profile.mem.memcpy_cost(self.kernel_state_bytes)
        self.processor.charge(self.profile.fork_ns + pte_ns + kernel_copy_ns)
        return FlowHandle(index, payload=child)

    def _destroy(self, handle: FlowHandle) -> None:
        child = handle.payload
        for mapping in list(child.mappings()):
            child.munmap(mapping)
        self.processor.kernel.exit_process()

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One sched_yield()-driven process switch.

        Kernel path: syscall in/out, scheduler pick (with the run-queue
        term of pre-O(1) kernels), address-space switch with TLB flush,
        and the cache penalty.  On kernels that ignore repeated
        sched_yield (IBM SP, Alpha), the call degenerates to a no-op and
        the measurement is "artificially low" (paper Figures 7–8).
        """
        n = n_flows if n_flows is not None else self.n_flows
        p = self.profile
        if p.ignores_repeated_sched_yield:
            return p.sched_yield_noop_ns
        return (p.syscall_ns + p.process_switch_ns
                + p.runqueue_ns_per_flow * n
                + p.tlb_flush_ns
                + self.cache_penalty_ns(n))
