"""Simulated processors and their per-node OS model."""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import (CommError, ProcessLimitExceeded, ReproError,
                          ThreadLimitExceeded)
from repro.sim.network import Message, Network
from repro.sim.platform import PlatformProfile
from repro.vm.addrspace import AddressSpace
from repro.vm.physical import PhysicalMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

__all__ = ["KernelModel", "Processor", "weak_handler"]


def weak_handler(method: Callable[[Message], None],
                 owner: str) -> Callable[[Message], None]:
    """A handler for :meth:`Processor.register` that calls the bound
    ``method`` but reaches its object only weakly.

    A runtime holds its cluster, and the cluster its processors; a
    processor holding the runtime's bound method would close a cycle, so
    a finished run would wait for the collector.  A message that arrives
    after the object is freed is a :class:`CommError` naming ``owner``.
    """
    ref = weakref.ref(method.__self__)
    fn = method.__func__

    def on_message(msg: Message) -> None:
        obj = ref()
        if obj is None:
            raise CommError(f"{msg.tag} message reached processor {msg.dst} "
                            f"after its {owner} was freed")
        fn(obj, msg)
    return on_message


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
    address space (the runtime process), and a kernel model.  Each
    runtime that receives messages here (AMPI, the thread migrator,
    Charm, POSE) registers a handler for its tag (:meth:`register`); the
    cluster calls :meth:`deliver` when a message's arrival event fires,
    and :meth:`deliver` calls the handler for the message's exact tag.

    The cluster owns its processors; a processor reaches back to its
    cluster only weakly (:attr:`cluster`), so a finished machine is freed
    by reference counting.  Delivery reads :attr:`network` directly.
    """

    def __init__(self, proc_id: int, profile: PlatformProfile,
                 cluster: Optional["Cluster"] = None):
        self.id = proc_id
        self.profile = profile
        self._cluster = None if cluster is None else weakref.ref(cluster)
        #: The cluster's network (``None`` standalone): what a delivery
        #: charges per message.
        self.network: Optional[Network] = (
            None if cluster is None else cluster.network)
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
        #: tag -> the function called for each message with that tag:
        #: this processor's one routing table.
        self._handlers: Dict[str, Callable[[Message], None]] = {}
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

    @property
    def cluster(self) -> Optional["Cluster"]:
        """The cluster this processor belongs to (``None`` standalone)."""
        return None if self._cluster is None else self._cluster()

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

    def charge_run(self, ns: float, count: int) -> float:
        """Charge ``count`` equal terms of ``ns``, one addition each, as
        ``count`` calls of :meth:`charge` would: ``now`` and ``busy_ns``
        come out bit for bit the same, which ``count * ns`` would not.
        Returns the new local time."""
        if self.background_load or ns < 0:
            for _ in range(count):
                self.charge(ns)
            return self.now
        busy, now = self.busy_ns, self.now
        for _ in range(count):
            busy += ns
            now += ns
        self.busy_ns, self.now = busy, now
        return now

    # -- messaging ------------------------------------------------------------

    def register(self, tag: str, handler: Callable[[Message], None]) -> None:
        """Call ``handler`` for each message that arrives with ``tag``."""
        if tag in self._handlers:
            raise CommError(f"tag {tag!r} already registered "
                            f"on processor {self.id}")
        self._handlers[tag] = handler

    def unregister(self, tag: str) -> None:
        """Drop the handler for ``tag`` (a runtime whose run is over lets
        go of the processors it was delivered on)."""
        if self._handlers.pop(tag, None) is None:
            raise CommError(f"tag {tag!r} is not registered "
                            f"on processor {self.id}")

    def deliver(self, msg: Message, arrival_time: float) -> None:
        """Called by the cluster when ``msg`` arrives at ``arrival_time``."""
        if self.failed:
            raise CommError(
                f"message {msg.tag!r} delivered to failed processor "
                f"{self.id} — in-flight traffic at crash time")
        if arrival_time > self.now:
            self.now = arrival_time
        network = self.network
        if network is not None:
            self.charge(network.per_message_cpu_ns)
        self.messages_received += 1
        try:
            handler = self._handlers[msg.tag]
        except KeyError:
            raise CommError(
                f"no handler for tag {msg.tag!r} on processor {self.id} "
                f"(registered: {sorted(self._handlers)})") from None
        handler(msg)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Processor {self.id} ({self.profile.name}) t={self.now:.0f}ns>"
