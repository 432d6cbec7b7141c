"""N:M hybrid threading (paper Section 2.3's related-work model).

"Some systems such as AIX and Solaris support 'N:M' thread scheduling,
which maps some number N of application threads onto a (usually smaller)
number M of kernel entities.  There are two parties, the kernel and the
user parts of the thread system, involved in each thread operation for N:M
threading, which is complex."

The model here captures the observable consequences:

* creation is user-level cheap (N is unbounded by the kernel) but the M
  kernel entities still count against the pthread limit;
* a switch between two application threads on the *same* kernel entity is
  a user-level switch plus the two-party coordination overhead; with
  probability 1/M the next thread lives on a different kernel entity and
  the switch pays the kernel price too (expected-cost model);
* a blocking call takes down only one of the M kernel entities, unlike a
  pure user-level system (tested against the scheduler's io modes).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ThreadLimitExceeded
from repro.flows.base import FlowHandle, FlowMechanism
from repro.sim.processor import Processor

__all__ = ["HybridThreadFlow"]


class HybridThreadFlow(FlowMechanism):
    """N application threads multiplexed over M kernel threads."""

    label = "n:m"
    cache_weight = 1.05
    stack_bytes = 16 * 1024
    #: Two-party (user + kernel scheduler) bookkeeping per switch.
    coordination_ns = 150.0

    def __init__(self, processor: Processor, kernel_entities: int = 4):
        super().__init__(processor)
        if kernel_entities <= 0:
            raise ThreadLimitExceeded("N:M needs at least one kernel entity")
        self.m = kernel_entities
        # The M kernel entities are real pthreads against the kernel model.
        for _ in range(kernel_entities):
            processor.kernel.thread_create()
            processor.charge(self.profile.pthread_create_ns)

    def _create(self, index: int) -> FlowHandle:
        handle = self._reserve_stack(index, self.stack_bytes, "nm-stack")
        self.processor.charge(self.profile.uthread_create_ns
                              + self.coordination_ns)
        return handle

    def _destroy(self, handle: FlowHandle) -> None:
        self._release_stack(handle)

    def teardown(self) -> None:
        """Release the M kernel entities (after destroy_all)."""
        for _ in range(self.m):
            self.processor.kernel.thread_exit()
        self.m = 0

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """Expected cost of one N:M switch.

        With M kernel entities and a balanced mapping, a fraction
        ``1/M`` of switches cross kernel entities and pay the kernel
        switch; the rest are user-level.  All pay the two-party
        coordination overhead.
        """
        n = n_flows if n_flows is not None else self.n_flows
        p = self.profile
        user = p.uthread_switch_ns + self.cache_penalty_ns(n)
        kernel = p.syscall_ns + p.kthread_switch_ns \
            + p.runqueue_ns_per_flow * min(n, self.m)
        cross = 1.0 / self.m
        return self.coordination_ns + (1 - cross) * user + cross * kernel
