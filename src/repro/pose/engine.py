"""The Time-Warp engine: posers, rollback, antimessages, GVT."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.core.pup import pup_pack, pup_unpack
from repro.sim.cluster import Cluster
from repro.sim.dispatch import TagDispatcher
from repro.sim.network import Message

__all__ = ["Poser", "PoseEngine", "PoseStats"]

_TAG = "pose"


class Poser:
    """One optimistically-executed simulation object.

    Subclasses implement entry methods ``def on_<event>(self, data)``
    returning an iterable of ``(dst_poser, event, data, delay)`` tuples —
    the events this event schedules (``delay`` is in *virtual* time and
    must be positive: zero-delay self-loops would never advance VT).

    Posers must be ``pup_register``'ed: the engine snapshots state with
    the PUP framework before every event, exactly the machinery thread
    and chare migration use.
    """

    #: Engine-injected: this poser's name.
    poser_id: str = "?"

    def handle(self, event: str, data: Any):
        """Dispatch an event to its ``on_<event>`` method."""
        fn = getattr(self, f"on_{event}", None)
        if fn is None:
            raise ReproError(
                f"{type(self).__name__} has no handler on_{event}")
        return fn(data) or ()


@dataclass(frozen=True)
class _Event:
    """One timestamped simulation event (or its antimessage)."""

    vt: float
    uid: int
    dst: str
    name: str
    data: Any
    anti: bool = False

    def key(self) -> Tuple[float, int]:
        return (self.vt, self.uid)


@dataclass
class _ProcessedRecord:
    """History entry: the snapshot before an event, and its outputs."""

    event: _Event
    snapshot: bytes
    vt_before: float
    outputs: List[_Event] = field(default_factory=list)


@dataclass(frozen=True)
class PoseStats:
    """Run statistics."""

    events_processed: int
    rollbacks: int
    events_rolled_back: int
    antimessages: int
    gvt: float


class PoseEngine:
    """Optimistic PDES over the simulated cluster.

    Parameters
    ----------
    cluster:
        The host machine; posers are distributed over its processors and
        their events travel the simulated network (whose latencies are
        what reorders event arrival and makes rollback necessary).
    """

    @property
    def kernel(self):
        """The cluster's event kernel: every optimistic event delivery,
        deferral, and antimessage is dispatched through it (categories
        ``pose.deliver`` / ``pose.defer`` / ``net.pose``), so the POSE
        virtual-time machinery rides the same instrumented core as the
        other runtimes."""
        return self.cluster.queue

    def __init__(self, cluster: Cluster, throttle_window: Optional[float] = None):
        #: Optimism control (the actual contribution of the POSE paper the
        #: ICPP paper cites: adaptive speculation windows).  An event whose
        #: timestamp is more than ``throttle_window`` ahead of GVT is
        #: deferred instead of speculatively executed, trading a little
        #: latency for far fewer rollbacks.  ``None`` = unlimited optimism
        #: (classic Time Warp).
        self.throttle_window = throttle_window
        self.deferrals = 0
        self.cluster = cluster
        self._posers: Dict[str, Poser] = {}
        self._pe: Dict[str, int] = {}
        self._lvt: Dict[str, float] = {}
        self._history: Dict[str, List[_ProcessedRecord]] = {}
        self._uid = itertools.count()
        #: Events sent but not yet processed (exact GVT bookkeeping; a
        #: single-host luxury that stands in for distributed GVT rounds).
        self._in_flight: Dict[int, float] = {}
        #: uids annihilated by an antimessage before their positive twin
        #: was processed; the twin is dropped on arrival.
        self._dead_uid: set = set()
        for proc in cluster.processors:
            TagDispatcher.of(proc).register(_TAG, self._on_message)
        # -- statistics ------------------------------------------------------
        self.events_processed = 0
        self.rollbacks = 0
        self.events_rolled_back = 0
        self.antimessages = 0
        self.snapshot_bytes = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def register(self, poser_id: str, poser: Poser, pe: int) -> None:
        """Place a poser on a processor."""
        if poser_id in self._posers:
            raise ReproError(f"poser {poser_id!r} already registered")
        if not 0 <= pe < len(self.cluster):
            raise ReproError(f"bad processor {pe}")
        poser.poser_id = poser_id
        self._posers[poser_id] = poser
        self._pe[poser_id] = pe
        self._lvt[poser_id] = 0.0
        self._history[poser_id] = []

    def poser(self, poser_id: str) -> Poser:
        """Look up a poser's (current) state object."""
        return self._posers[poser_id]

    def schedule(self, dst: str, event: str, data: Any = None,
                 at: float = 0.0) -> None:
        """Inject an initial event at virtual time ``at`` (from outside)."""
        self._send(src_pe=0, ev=_Event(at, next(self._uid), dst, event,
                                       data))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, policy=None) -> PoseStats:
        """Process events until none remain; returns run statistics.

        ``policy`` (a :class:`~repro.kernel.RunPolicy`) bounds the
        underlying kernel drive; the default drains to quiescence.
        """
        self.cluster.run(policy=policy)
        self._fossil_collect()
        return PoseStats(
            events_processed=self.events_processed,
            rollbacks=self.rollbacks,
            events_rolled_back=self.events_rolled_back,
            antimessages=self.antimessages,
            gvt=self.gvt(),
        )

    def gvt(self) -> float:
        """Global virtual time: nothing older can ever arrive."""
        if self._in_flight:
            return min(self._in_flight.values())
        return float("inf") if self.events_processed else 0.0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _send(self, src_pe: int, ev: _Event) -> None:
        if ev.dst not in self._posers:
            raise ReproError(f"event for unknown poser {ev.dst!r}")
        if not ev.anti:
            self._in_flight[ev.uid] = ev.vt
        dst_pe = self._pe[ev.dst]
        if src_pe == dst_pe:
            # Local delivery still goes through the network queue (zero
            # hop) so ordering remains event-driven.
            self.cluster.after(dst_pe, self.cluster.platform.event_dispatch_ns,
                               self._deliver, ev,
                               category="pose.deliver", flow=ev.dst)
        else:
            self.cluster.send(src_pe, dst_pe, ev, size_bytes=64 + ev.uid % 7,
                              tag=_TAG)

    def _on_message(self, msg: Message) -> None:
        self._deliver(msg.payload)

    def _deliver(self, ev: _Event) -> None:
        if ev.anti:
            self._handle_anti(ev)
            return
        if ev.uid in self._dead_uid:
            # Annihilated by an antimessage that overtook it.
            self._dead_uid.discard(ev.uid)
            self._in_flight.pop(ev.uid, None)
            return
        if (self.throttle_window is not None
                and self._in_flight
                and ev.vt > self.gvt() + self.throttle_window):
            # Too far in the future: defer rather than speculate.
            self.deferrals += 1
            pe = self._pe[ev.dst]
            self.cluster.after(pe, 10 * self.cluster.platform.event_dispatch_ns,
                               self._deliver, ev,
                               category="pose.defer", flow=ev.dst)
            return
        if self._straggles(ev):
            self._rollback(ev.dst, ev.vt)
        self._process(ev)

    def _straggles(self, ev: _Event) -> bool:
        history = self._history[ev.dst]
        return bool(history) and ev.key() < history[-1].event.key()

    def _process(self, ev: _Event) -> None:
        poser = self._posers[ev.dst]
        record = _ProcessedRecord(
            event=ev,
            snapshot=pup_pack(poser),
            vt_before=self._lvt[ev.dst],
        )
        self.snapshot_bytes += len(record.snapshot)
        outputs = poser.handle(ev.name, ev.data)
        self._lvt[ev.dst] = max(self._lvt[ev.dst], ev.vt)
        pe = self._pe[ev.dst]
        self.cluster[pe].charge(self.cluster.platform.event_dispatch_ns)
        for dst, name, data, delay in outputs:
            if delay <= 0:
                raise ReproError(
                    f"{ev.dst}: event delay must be positive, got {delay}")
            record.outputs.append(
                _Event(ev.vt + delay, next(self._uid), dst, name, data))
        for out in record.outputs:
            self._send(pe, out)
        self._history[ev.dst].append(record)
        self._in_flight.pop(ev.uid, None)
        self.events_processed += 1

    def _rollback(self, poser_id: str, to_vt: float) -> None:
        """Undo every processed event with vt >= ``to_vt`` (Time Warp)."""
        history = self._history[poser_id]
        undone: List[_ProcessedRecord] = []
        while history and history[-1].event.vt >= to_vt:
            undone.append(history.pop())
        if not undone:
            return
        self.rollbacks += 1
        self.events_rolled_back += len(undone)
        # Restore the oldest undone record's snapshot (state *before* it).
        oldest = undone[-1]
        restored = pup_unpack(oldest.snapshot)
        restored.poser_id = poser_id
        self._posers[poser_id] = restored
        self._lvt[poser_id] = oldest.vt_before
        pe = self._pe[poser_id]
        for record in undone:
            # Cancel this record's outputs with antimessages...
            for out in record.outputs:
                self.antimessages += 1
                self._send(pe, _Event(out.vt, out.uid, out.dst, out.name,
                                      None, anti=True))
            # ...and re-enqueue its own event for re-execution (except the
            # straggler's successors are re-delivered; the events
            # themselves are still valid inputs).
            self._send(pe, record.event)

    def _handle_anti(self, ev: _Event) -> None:
        """An antimessage annihilates its positive twin, wherever it is.

        If the twin was already processed, the poser rolls back past it
        (which re-sends the twin along with the other undone events) and
        the twin is marked dead so the resend is dropped; if the twin is
        still in flight, the mark alone suffices.
        """
        if any(r.event.uid == ev.uid for r in self._history[ev.dst]):
            self._rollback(ev.dst, ev.vt)
        self._dead_uid.add(ev.uid)
        self._in_flight.pop(ev.uid, None)

    def _fossil_collect(self) -> None:
        """Discard history at or below GVT (bounds snapshot memory)."""
        gvt = self.gvt()
        for poser_id, history in self._history.items():
            self._history[poser_id] = [r for r in history
                                       if r.event.vt > gvt]
