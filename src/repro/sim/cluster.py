"""The simulated cluster: processors + network + event kernel."""

from __future__ import annotations

import hashlib
from typing import Any, Callable, List, Optional

from repro.errors import CommError, ReproError
from repro.kernel import EventKernel, KernelEvent, RunPolicy
from repro.sim.network import Message, Network
from repro.sim.platform import PlatformProfile, get_platform
from repro.sim.processor import Processor

__all__ = ["Cluster"]


class Cluster:
    """A distributed-memory machine of ``n`` simulated processors.

    Execution model: a single global :class:`~repro.kernel.EventKernel`
    (:attr:`queue`) holds message arrivals and timers, processed in
    virtual-time order.
    Handling an event on processor *P* pulls *P*'s local clock up to the
    event time, then runs the handler, which charges local work and may
    send further messages stamped with *P*'s advancing local clock.  This
    is a conservative parallel-discrete-event execution — fittingly, the
    same structure BigSim itself uses (paper Section 4.4).
    """

    def __init__(self, num_processors: int,
                 platform: PlatformProfile | str = "linux_x86",
                 network: Optional[Network] = None):
        if num_processors <= 0:
            raise ReproError("cluster needs at least one processor")
        if isinstance(platform, str):
            platform = get_platform(platform)
        self.platform = platform
        self.network = network or Network()
        self.queue = EventKernel(name="sim", causality=True)
        self.processors: List[Processor] = [
            Processor(i, platform, cluster=self) for i in range(num_processors)
        ]
        #: Once :meth:`enable_tracing` runs, a running SHA-256 over every
        #: later send's ``(send_time, src, dst, tag, size_bytes)``.
        self.send_digest: Optional["hashlib._Hash"] = None
        #: Per-cluster message-id counter: ids restart at 1 for every
        #: cluster, so identical runs in one host process get identical
        #: ids (replay/fingerprint comparisons may key on msg_id).
        self._next_msg_id = 0
        #: Instrumentation labels, built once: the ``pe<id>`` flow label
        #: of every processor, and the ``net.<tag>`` category of every
        #: tag seen so far (the tag space is a handful of entries).
        self._flow_labels: List[str] = [f"pe{i}"
                                        for i in range(num_processors)]
        #: Every processor's ``deliver``, bound once: a send posts it
        #: rather than binding a new method object per message.
        self._deliver: List[Callable[[Message, float], None]] = [
            proc.deliver for proc in self.processors]
        self._net_categories: dict = {}

    def __len__(self) -> int:
        return len(self.processors)

    def __getitem__(self, proc_id: int) -> Processor:
        return self.processors[proc_id]

    # -- messaging --------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any, size_bytes: int,
             tag: str = "") -> Message:
        """Send a message; schedules its arrival on the event queue."""
        processors = self.processors
        n = len(processors)
        if not 0 <= dst < n:
            raise ReproError(f"bad destination processor {dst}")
        if not 0 <= src < n:
            raise ReproError(f"bad source processor {src}")
        if size_bytes < 0:
            raise ReproError(f"negative message size {size_bytes} "
                             f"({src}->{dst}, tag={tag!r})")
        sender = processors[src]
        receiver = processors[dst]
        if sender.failed:
            raise CommError(f"failed processor {src} cannot send")
        if receiver.failed:
            raise CommError(f"send to failed processor {dst} "
                            f"(tag={tag!r})")
        network = self.network
        queue = self.queue
        send_time = sender.charge(network.per_message_cpu_ns)
        self._next_msg_id += 1
        msg = Message(src, dst, payload, size_bytes, tag, send_time,
                      self._next_msg_id)
        arrival = network.delivery_time(send_time, size_bytes, src, dst)
        # Never schedule into the queue's past: a processor whose local
        # clock lags global event time can still legally send.
        cur = queue.current_time
        if arrival < cur:
            arrival = cur
        sender.messages_sent += 1
        sender.bytes_sent += size_bytes
        category = self._net_categories.get(tag)
        if category is None:
            category = self._net_categories[tag] = f"net.{tag or 'raw'}"
        # The kernel's "net.send" filter channel is the sanctioned
        # interception point for the delivery schedule: subscribers (the
        # chaos injector) may drop, delay, duplicate, or reorder the
        # arrivals deterministically.  Unsubscribed — every run but a
        # chaos cell — the one arrival is posted as it stands.
        hooks = queue.hooks
        flow = self._flow_labels[dst]
        deliver = self._deliver[dst]
        if hooks.has("net.send"):
            for t in hooks.filter("net.send", [arrival], msg=msg):
                if t < cur:
                    t = cur
                queue.post(t, deliver, (msg, t), category, flow)
        else:
            queue.post(arrival, deliver, (msg, arrival), category, flow)
        return msg

    def at(self, proc_id: int, time: float, fn: Callable[..., Any],
           *args: Any, category: str = "timer",
           flow: Optional[str] = None) -> KernelEvent:
        """Schedule ``fn(*args)`` on processor ``proc_id`` at virtual ``time``."""
        proc = self.processors[proc_id]

        def fire():
            if time > proc.now:
                proc.now = time
            fn(*args)

        fire.__qualname__ = getattr(fn, "__qualname__", "Cluster.at.fire")
        return self.queue.schedule(max(time, self.queue.current_time), fire,
                                   category=category,
                                   flow=flow or self._flow_labels[proc_id])

    def after(self, proc_id: int, delay_ns: float, fn: Callable[..., Any],
              *args: Any, category: str = "timer",
              flow: Optional[str] = None) -> KernelEvent:
        """Schedule ``fn`` on ``proc_id`` after ``delay_ns`` of its local time."""
        proc = self.processors[proc_id]
        return self.at(proc_id, proc.now + delay_ns, fn, *args,
                       category=category, flow=flow)

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            policy: Optional[RunPolicy] = None) -> int:
        """Drain the event queue; returns the number of events processed."""
        return self.queue.run(policy, until=until, max_events=max_events)

    def enable_tracing(self) -> None:
        """Digest every later send into :attr:`send_digest`; idempotent.

        Each send feeds ``repr((send_time, src, dst, tag, size_bytes))``
        and a newline to one SHA-256 (the chaos fingerprint's trace
        hash).  The digest is a ``net.send`` subscriber: subscribed
        before a fault injector, it sees a send even when a later filter
        raises on it.  It closes over the hash object only, so the
        cluster stays free of reference cycles.
        """
        if self.send_digest is not None:
            return
        digest = self.send_digest = hashlib.sha256()
        update = digest.update

        def record(arrivals, msg):
            update(repr((msg.send_time, msg.src, msg.dst, msg.tag,
                         msg.size_bytes)).encode() + b"\n")
            return arrivals

        self.queue.hooks.subscribe("net.send", record)

    @property
    def time(self) -> float:
        """Global event time (time of the last processed event)."""
        return self.queue.current_time

    @property
    def makespan(self) -> float:
        """Latest local clock across all processors (completion time)."""
        return max(p.now for p in self.processors)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cluster {len(self.processors)}x{self.platform.name} "
                f"t={self.time:.0f}ns>")
