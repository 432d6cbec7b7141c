"""Kernel threads (pthreads) as flows of control (paper Section 2.2)."""

from __future__ import annotations

from typing import Optional

from repro.errors import VMError
from repro.flows.base import FlowMechanism

__all__ = ["KernelThreadFlow"]


class KernelThreadFlow(FlowMechanism):
    """pthread_create()-created kernel threads yielding with sched_yield().

    Threads share the processor's address space but each needs a real
    stack mapping and a kernel descriptor; creation hits the platform's
    pthread limit (Table 2 — e.g. fewer than 256 on stock Red Hat 9).
    """

    label = "pthread"
    limiting_factor = "kernel"
    cache_weight = 1.2
    #: Default pthread stack reservation (kept small so the simulated
    #: 32-bit address space is not the binding constraint, as in reality
    #: where pthread stacks are lazily faulted).
    stack_bytes = 16 * 1024

    def _create(self, index: int) -> tuple:
        kernel = self.processor.kernel
        kernel.thread_create()
        try:
            payload = self._reserve_stack(self.stack_bytes, "pthread-stack")
        except VMError:                 # no stack: no kernel thread either
            kernel.thread_exit()
            raise
        self.processor.charge(self.profile.pthread_create_ns)
        return payload

    def _destroy(self, payload: tuple) -> None:
        self._release_stack(payload)
        self.processor.kernel.thread_exit()

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One sched_yield()-driven kernel-thread switch.

        Same kernel path as a process switch minus the address-space
        change — which is why the paper notes kernel threads "tend to be
        closer in memory and time cost to processes than user-level
        threads" (Section 2.2).
        """
        n = n_flows if n_flows is not None else self.n_flows
        p = self.profile
        if p.ignores_repeated_sched_yield:
            return p.sched_yield_noop_ns
        return (p.syscall_ns + p.kthread_switch_ns
                + p.runqueue_ns_per_flow * n
                + self.cache_penalty_ns(n))
