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

Message faults only apply to tags in ``faultable_tags`` (application
traffic, ``"ampi"`` by default).  Thread-migration images are *never*
dropped or duplicated — losing one would lose a thread outright, which is
not a fault model the paper's runtime admits; migrations instead fail via
the dedicated abort (before any state moves) and bounce (the image returns
home intact) paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import FaultEvent, FaultSchedule
from repro.core.pup import pup_seal
from repro.errors import ChaosError, CheckpointError

__all__ = ["FaultInjector"]

#: Size of the pup integrity-envelope header (magic + length + CRC32);
#: corruption flips payload bytes so the seal, not luck, catches it.
_SEAL_HEADER_LEN = len(pup_seal(b""))


class FaultInjector:
    """Applies a schedule's decisions at the runtime's faultable points."""

    def __init__(self, schedule: FaultSchedule,
                 faultable_tags: Tuple[str, ...] = ("ampi",)):
        self.schedule = schedule
        self.faultable_tags = tuple(faultable_tags)
        self.counters: Dict[str, int] = {
            "sends_seen": 0, "dropped": 0, "delayed": 0, "duplicated": 0,
            "reordered": 0, "migrations_vetoed": 0, "migrations_bounced": 0,
            "ckpt_io_errors": 0, "ckpt_corrupted": 0, "crashes": 0,
            "evacuations": 0,
        }
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

    def notify(self, event: FaultEvent) -> None:
        """Fire the :attr:`on_inject` hook for an applied fault."""
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
        if msg.tag not in self.faultable_tags:
            return arrivals
        out: List[float] = []
        for arrival in arrivals:
            self.counters["sends_seen"] += 1
            ev = self.schedule.decide("send")
            if ev is None:
                times = [arrival]
            elif ev.kind == "drop":
                times = []
                self.counters["dropped"] += 1
            elif ev.kind == "delay":
                times = [arrival + float(ev.arg)]
                self.counters["delayed"] += 1
            elif ev.kind == "dup":
                times = [arrival, arrival + float(ev.arg)]
                self.counters["duplicated"] += 1
            elif ev.kind == "reorder":
                # The cluster clamps this up to the current event time:
                # the message arrives as early as legally possible,
                # jumping ahead of slower traffic sent before it.
                times = [msg.send_time]
                self.counters["reordered"] += 1
            else:
                raise ChaosError(f"unknown send fault kind {ev.kind!r}")
            self.arrivals_scheduled += len(times)
            out.extend(times)
            if ev is not None:
                self.notify(ev)  # after the ledger is consistent
        return out

    # -- migrator hooks: abort and bounce -------------------------------

    def on_migrate(self, thread, src_pe: int, dst_pe: int) -> Optional[bool]:
        """``True`` to veto a migration before any state moves, else ``None``."""
        ev = self.schedule.decide("migrate")
        if ev is not None and ev.kind == "abort":
            self.counters["migrations_vetoed"] += 1
            self.notify(ev)
            return True
        return None

    def on_migration_delivery(self, image, msg) -> Optional[str]:
        """``"bounce"`` to refuse an arriving thread image, else ``None``."""
        ev = self.schedule.decide("mig_delivery")
        if ev is not None and ev.kind == "bounce":
            self.counters["migrations_bounced"] += 1
            self.notify(ev)
            return "bounce"
        return None

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
            self.counters["ckpt_io_errors"] += 1
            self.notify(ev)
            raise CheckpointError(
                f"injected disk write error for checkpoint {key!r}")
        if ev.kind == "corrupt":
            payload = len(blob) - _SEAL_HEADER_LEN
            i = _SEAL_HEADER_LEN + min(int(float(ev.arg) * payload),
                                       payload - 1)
            blob = blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
            self.counters["ckpt_corrupted"] += 1
            self.corrupted_keys.add(key)
            self.notify(ev)
            return blob
        raise ChaosError(f"unknown ckpt fault kind {ev.kind!r}")

    # -- barrier hook: processor-level faults ---------------------------

    def on_barrier(self) -> Optional[FaultEvent]:
        """Consult the schedule at a checkpoint barrier.

        The harness interprets the returned ``crash``/``evac`` event (it
        knows which processors are live and performs the recovery), then
        reports back through :meth:`record_barrier`.
        """
        return self.schedule.decide("barrier")

    def record_barrier(self, event: FaultEvent) -> None:
        """Count and announce a barrier fault the harness applied."""
        key = {"crash": "crashes", "evac": "evacuations"}.get(event.kind)
        if key is None:
            raise ChaosError(f"unknown barrier fault kind {event.kind!r}")
        self.counters[key] += 1
        self.notify(event)

    # ------------------------------------------------------------------

    @property
    def faults_injected(self) -> int:
        """Total faults applied so far."""
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
