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

    def _create_run(self, count: int) -> None:
        kernel = self.processor.kernel
        space = self.processor.space
        limit = self.profile.max_kthreads
        while count > 0:
            room = count if limit is None else limit - kernel.kthread_count
            # None left means a run of one, refused by the first layer
            # that refuses it: the kernel, then the stack's address
            # range, then its page.
            run = max(1, min(count, room,
                             space.reservable(self.stack_bytes, "iso"),
                             space.physical.frames_free))
            for _ in range(run):
                kernel.thread_create()
            try:
                self.flows += self._reserve_stacks(run, self.stack_bytes,
                                                   "pthread-stack")
            except VMError:             # no stack: no kernel thread either
                for _ in range(run):
                    kernel.thread_exit()
                raise
            self.processor.charge_run(self.profile.pthread_create_ns, run)
            count -= run

    def _destroy_run(self) -> None:
        kernel = self.processor.kernel
        self._release_stacks(self.flows)
        for _ in self.flows:
            kernel.thread_exit()
        self.flows.clear()

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
