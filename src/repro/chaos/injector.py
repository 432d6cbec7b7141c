"""The fault injector: hooks a :class:`FaultSchedule` into the runtimes.

One :class:`FaultInjector` subscribes to the cluster kernel's
:class:`~repro.kernel.HookBus` — the only sanctioned interception point.
:meth:`FaultInjector.attach` subscribes one ``on_*`` method per channel
the runtimes publish (``"net.send"``, ``"migration.start"``,
``"migration.delivery"``, ``"checkpoint.write"``,
``"checkpoint.barrier"``), each taking its channel's own signature; the
subsystems themselves never learn the injector exists, and no runtime
call site is wrapped or subclassed — chaos is purely additive.  The
methods' consultation order against the schedule is the determinism
contract: one :meth:`~repro.chaos.faults.FaultSchedule.decide` per
channel visit (per arrival on ``"net.send"``), in kernel dispatch order.
Each method applies its site's kinds (:data:`~repro.chaos.faults.FAULTS`)
and ends in the one count-and-notify step.

Message faults only apply to :data:`FAULTABLE_TAGS` (application
traffic).  Thread-migration images are *never* dropped or duplicated —
losing one would lose a thread outright, which is not a fault model the
paper's runtime admits; migrations instead fail via the dedicated abort
(before any state moves) and bounce (the image returns home intact)
paths.
"""

from __future__ import annotations

from typing import List, Optional

from repro.chaos.faults import KINDS, FaultEvent, FaultSchedule
from repro.core.pup import pup_seal
from repro.errors import ChaosError, CheckpointError

__all__ = ["FaultInjector"]

#: The message tags whose sends are faultable: AMPI's application traffic.
FAULTABLE_TAGS = ("ampi",)

#: Size of the pup integrity-envelope header (magic + length + CRC32);
#: corruption flips payload bytes so the seal, not luck, catches it.
_SEAL_HEADER_LEN = len(pup_seal(b""))


class FaultInjector:
    """Applies a schedule's decisions at the runtime's faultable points."""

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        #: ``sends_seen``, then one counter per :data:`FAULTS` row.
        self.counters = dict.fromkeys(
            ["sends_seen", *(row.counter for row in KINDS.values())], 0)
        #: Arrival events scheduled for faultable sends; the conservation
        #: invariant checks this against sends - drops + dups.
        self.arrivals_scheduled = 0
        #: Checkpoint keys whose blobs this injector corrupted (so the
        #: integrity invariant knows which failures are *expected*).
        self.corrupted_keys: set = set()
        #: Called with each applied :class:`FaultEvent` (the chaos harness
        #: runs the invariant checkers here).
        self.on_inject = None
        self.cluster = None

    # ------------------------------------------------------------------

    def attach(self, cluster) -> "FaultInjector":
        """Subscribe this injector on the cluster kernel's hook bus.

        Every faultable decision point in the runtimes is a named bus
        channel and one ``on_*`` method is its subscriber.  Attaching
        twice (to any cluster) would double the schedule consultations
        and wreck determinism, so it is an error.
        """
        if self.cluster is not None:
            raise ChaosError("injector is already attached to a cluster")
        self.cluster = cluster
        for channel, fn in self._subscriptions():
            cluster.queue.hooks.subscribe(channel, fn)
        return self

    def detach(self) -> None:
        """Unsubscribe every ``on_*`` method from the cluster's bus."""
        if self.cluster is None:
            raise ChaosError("injector is not attached")
        for channel, fn in self._subscriptions():
            self.cluster.queue.hooks.unsubscribe(channel, fn)
        self.cluster = None

    def _subscriptions(self):
        return (("net.send", self.on_send),
                ("migration.start", self.on_migrate),
                ("migration.delivery", self.on_migration_delivery),
                ("checkpoint.write", self.on_checkpoint_write),
                ("checkpoint.barrier", self.on_barrier))

    def _applied(self, event: FaultEvent) -> None:
        """Count an applied fault and fire the :attr:`on_inject` hook."""
        self.counters[KINDS[event.site, event.kind].counter] += 1
        if self.on_inject is not None:
            self.on_inject(event)

    # -- cluster hook: message faults -----------------------------------

    def on_send(self, arrivals: List[float], msg) -> List[float]:
        """Decide the arrival times of one sent message.

        Returns the (possibly empty) list of delivery times the cluster
        should schedule, consulting the schedule once per incoming
        arrival: none drops the message, two duplicate it, an
        earlier-than-computed time reorders it ahead of traffic sent
        before it.
        """
        if msg.tag not in FAULTABLE_TAGS:
            return arrivals
        out: List[float] = []
        for arrival in arrivals:
            self.counters["sends_seen"] += 1
            ev = self.schedule.decide("send")
            if ev is None:
                times = [arrival]
            elif ev.kind == "drop":
                times = []
            elif ev.kind == "delay":
                times = [arrival + float(ev.arg)]
            elif ev.kind == "dup":
                times = [arrival, arrival + float(ev.arg)]
            else:
                # reorder.  The cluster clamps this up to the current
                # event time: the message arrives as early as legally
                # possible, jumping ahead of slower traffic sent before it.
                times = [msg.send_time]
            self.arrivals_scheduled += len(times)
            out.extend(times)
            if ev is not None:
                self._applied(ev)  # after the ledger is consistent
        return out

    # -- migrator hooks: abort and bounce -------------------------------

    def on_migrate(self, thread, src_pe: int, dst_pe: int) -> Optional[bool]:
        """``True`` to veto a migration before any state moves, else ``None``."""
        ev = self.schedule.decide("migrate")
        if ev is None:
            return None
        self._applied(ev)
        return True

    def on_migration_delivery(self, image, msg) -> Optional[str]:
        """``"bounce"`` to refuse an arriving thread image, else ``None``."""
        ev = self.schedule.decide("mig_delivery")
        if ev is None:
            return None
        self._applied(ev)
        return "bounce"

    # -- checkpointer hook: disk errors ---------------------------------

    def on_checkpoint_write(self, blob: bytes, key: str) -> bytes:
        """Pass, corrupt, or refuse one checkpoint blob.

        ``io_error`` raises :class:`CheckpointError` (a transient write
        failure — the AMPI runtime retries once); ``corrupt`` flips one
        payload byte, which the blob's integrity seal turns into a loud
        :class:`CheckpointError` at restore time.
        """
        ev = self.schedule.decide("ckpt")
        if ev is None:
            return blob
        if ev.kind == "io_error":
            self._applied(ev)
            raise CheckpointError(
                f"injected disk write error for checkpoint {key!r}")
        payload = len(blob) - _SEAL_HEADER_LEN
        i = _SEAL_HEADER_LEN + min(int(float(ev.arg) * payload), payload - 1)
        blob = blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
        self.corrupted_keys.add(key)
        self._applied(ev)
        return blob

    # -- runtime hook: processor-level faults ---------------------------

    def on_barrier(self, runtime) -> None:
        """Crash or evacuate a processor at a coordinated checkpoint.

        ``runtime`` (an :class:`~repro.ampi.runtime.AmpiRuntime`) has a
        fresh image of every live rank on disk and an empty event queue,
        so fail-stop recovery is well-defined.  A fault drawn with fewer
        than two live processors is skipped (:func:`_pick_victim`).
        """
        ev = self.schedule.decide("barrier")
        if ev is None:
            return
        victim = _pick_victim(runtime, ev.arg)
        if victim is None:
            return
        survivors = [p.id for p in runtime.cluster.processors
                     if not p.failed and p.id != victim]
        if ev.kind == "crash":
            _crash_processor(runtime, victim, survivors)
        else:
            _evacuate_processor(runtime, victim, survivors)
        self._applied(ev)

    # ------------------------------------------------------------------

    @property
    def faults_injected(self) -> int:
        """Total faults the schedule fired so far (its ``injected``)."""
        return len(self.schedule.injected)

    def export_metrics(self, registry) -> None:
        """Copy the fault ledger into a metrics registry as ``chaos.*``.

        One-shot, at end of run: each injector counter becomes a
        ``chaos.<name>`` counter (zero entries included, so snapshots
        have a stable shape), plus ``chaos.faults_injected``.
        """
        for name, value in self.counters.items():
            registry.counter(f"chaos.{name}").inc(value)
        registry.counter("chaos.faults_injected").inc(self.faults_injected)

    def summary(self) -> str:
        """One line of non-zero fault counters."""
        hits = [f"{k}={v}" for k, v in sorted(self.counters.items()) if v]
        return ", ".join(hits) or "no faults"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector {self.schedule.mode}: {self.summary()}>"


def _pick_victim(rt, fraction: float) -> Optional[int]:
    """Map a schedule fraction onto a live processor, or None to skip.

    Barrier faults never take down the last live processor — a machine
    with no survivors has no recovery story to test.  A skipped fault
    stays in the schedule's ``injected`` (a replay must hit it too) but
    moves no counter.
    """
    live = [p.id for p in rt.cluster.processors if not p.failed]
    if len(live) < 2:
        return None
    return live[min(int(float(fraction) * len(live)), len(live) - 1)]


def _crash_processor(rt, victim: int, survivors: List[int]) -> None:
    """Fail-stop a processor right after a coordinated checkpoint.

    Every live rank has a fresh image on the simulated disk and the event
    queue is empty, so the lost ranks' threads are destroyed and rebuilt
    from their checkpoints on the survivors, round-robin.
    """
    lost = [r for r in range(rt.num_ranks)
            if rt.db.tracks(r) and rt.rank_pe(r) == victim]
    for rank in lost:
        rt.migrator.depart(rt.rank_thread[rank])
    rt.cluster[victim].failed = True
    for i, rank in enumerate(lost):
        rt.recover_rank(rank, survivors[i % len(survivors)])


def _evacuate_processor(rt, victim: int, survivors: List[int]) -> None:
    """Proactively drain a processor, then mark it failed once empty.

    The paper's "vacate a node that is expected to fail": threads migrate
    off while the node still works.  If fault injection aborts every
    attempt for some thread, the node stays up (a half-evacuated node
    cannot fail-stop without losing threads).
    """
    rt.checkpointer.evacuate(victim, targets=survivors)
    rt.cluster.run()  # complete the thread-image deliveries
    if not rt.schedulers[victim].threads:
        rt.cluster[victim].failed = True
