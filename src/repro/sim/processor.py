"""Simulated processors and their per-node OS model."""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import (CommError, ProcessLimitExceeded, ReproError,
                          ThreadLimitExceeded)
from repro.sim.network import Message
from repro.sim.platform import PlatformProfile
from repro.vm.addrspace import AddressSpace
from repro.vm.physical import PhysicalMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

__all__ = ["KernelModel", "Processor"]


class KernelModel:
    """Per-node operating-system resource model.

    Tracks how many processes and kernel threads exist on the node and
    enforces the platform's practical limits (Table 2).  The flow-of-control
    mechanisms in :mod:`repro.flows` call into this when they create flows,
    so the Table 2 benchmark *executes* the refusal path rather than reading
    a constant.
    """

    def __init__(self, profile: PlatformProfile):
        self.profile = profile
        #: The initial program counts as one process.
        self.process_count = 1
        self.kthread_count = 0

    def fork(self) -> None:
        """Account for one new process; raise if the limit is hit."""
        limit = self.profile.max_processes
        if limit is not None and self.process_count >= limit:
            raise ProcessLimitExceeded(
                f"{self.profile.name}: process limit {limit} reached"
            )
        self.process_count += 1

    def exit_process(self) -> None:
        """Account for one process exiting."""
        if self.process_count <= 1:
            raise ProcessLimitExceeded("cannot exit the last process")
        self.process_count -= 1

    def thread_create(self) -> None:
        """Account for one new kernel thread; raise if the limit is hit."""
        limit = self.profile.max_kthreads
        if limit is not None and self.kthread_count >= limit:
            raise ThreadLimitExceeded(
                f"{self.profile.name}: kernel thread limit {limit} reached"
            )
        self.kthread_count += 1

    def thread_exit(self) -> None:
        """Account for one kernel thread exiting."""
        if self.kthread_count <= 0:
            raise ThreadLimitExceeded("no kernel threads to exit")
        self.kthread_count -= 1


class Processor:
    """One simulated processor (one node of the cluster).

    A processor owns a virtual clock, a physical-memory pool, a main
    address space (the runtime process), and a kernel model.  Higher layers
    (the Converse-style scheduler, the Charm runtime) register a message
    handler; the cluster calls :meth:`deliver` when a message's arrival
    event fires.
    """

    def __init__(self, proc_id: int, profile: PlatformProfile,
                 cluster: Optional["Cluster"] = None):
        self.id = proc_id
        self.profile = profile
        self.cluster = cluster
        #: This processor's local virtual time in ns.  Work moves it with
        #: :meth:`charge`; a delivery or timer pulls an idle processor's
        #: clock forward to the event's time, never backward.
        self.now = 0.0
        self.physical = PhysicalMemory(profile.physical_memory_bytes,
                                       profile.page_size)
        self.layout = profile.layout()
        #: Address space of the runtime process hosting user-level threads.
        self.space = AddressSpace(self.layout, self.physical,
                                  name=f"pe{proc_id}")
        self.kernel = KernelModel(profile)
        self._handler: Optional[Callable[[Message], None]] = None
        #: Fail-stop flag: a crashed (or evacuated-then-shut-down) node.
        #: Set by the chaos harness; a failed processor must neither send
        #: nor receive — both paths raise :class:`~repro.errors.CommError`
        #: loudly rather than silently dropping traffic.
        self.failed = False
        #: Fraction of this processor stolen by external work — the
        #: "adapting to load on workstation clusters" scenario (paper
        #: ref [10]).  Work charged here takes 1/(1-load) times longer, so
        #: measurement-based balancers naturally migrate work away.
        self.background_load = 0.0
        # -- statistics -----------------------------------------------------
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.busy_ns = 0.0

    # -- time ---------------------------------------------------------------

    def charge(self, ns: float) -> float:
        """Charge ``ns`` of local work; returns the new local time.

        On a processor with nonzero :attr:`background_load`, the same work
        takes ``ns / (1 - load)`` of wall (virtual) time — external jobs
        steal the difference.
        """
        if self.background_load:
            if not 0.0 <= self.background_load < 1.0:
                raise ReproError(
                    f"background_load must be in [0, 1), got "
                    f"{self.background_load}")
            ns = ns / (1.0 - self.background_load)
        if ns < 0:
            raise ReproError(f"cannot advance clock by negative time {ns}")
        self.busy_ns += ns
        self.now = now = self.now + ns
        return now

    # -- messaging ------------------------------------------------------------

    def set_message_handler(self, fn: Callable[[Message], None]) -> None:
        """Install the function called for each arriving message."""
        self._handler = fn

    def send(self, dst: int, payload, size_bytes: int, tag: str = "") -> Message:
        """Send a message to processor ``dst`` via the cluster network."""
        if self.cluster is None:
            raise RuntimeError(f"processor {self.id} is not attached to a cluster")
        return self.cluster.send(self.id, dst, payload, size_bytes, tag)

    def deliver(self, msg: Message, arrival_time: float) -> None:
        """Called by the cluster when ``msg`` arrives at ``arrival_time``."""
        if self.failed:
            raise CommError(
                f"message {msg.tag!r} delivered to failed processor "
                f"{self.id} — in-flight traffic at crash time")
        if arrival_time > self.now:
            self.now = arrival_time
        cluster = self.cluster
        if cluster is not None:
            self.charge(cluster.network.per_message_cpu_ns)
        self.messages_received += 1
        handler = self._handler
        if handler is None:
            raise RuntimeError(
                f"processor {self.id} received a message but has no handler"
            )
        handler(msg)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Processor {self.id} ({self.profile.name}) t={self.now:.0f}ns>"
