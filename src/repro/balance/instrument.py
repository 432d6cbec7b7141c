"""The load database: measured per-object loads and current placement."""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

__all__ = ["LBDatabase", "RATIO_BUCKETS"]

#: Bucket edges of the ``lb.imbalance`` histogram: max/avg load ratios
#: (:meth:`LBDatabase.imbalance`; 1.0 is perfect balance).
RATIO_BUCKETS: Tuple[float, ...] = (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)


class LBDatabase:
    """Measured loads of migratable objects since the last rebalance.

    The runtime calls :meth:`record` as objects compute; strategies read
    :meth:`loads` and :meth:`placement`.  ``epoch`` counts rebalances, and
    :meth:`reset_loads` starts a new measurement window — the
    measurement-based model of Charm++'s load balancing framework.
    """

    def __init__(self, npes: int):
        self.npes = npes
        self._load: Dict[Hashable, float] = {}
        self._pe: Dict[Hashable, int] = {}
        #: Bytes exchanged per (sender, receiver) object pair this window.
        self._comm: Dict[tuple, int] = {}
        #: Relative speed of each processor (1.0 = dedicated; a node with
        #: 75% background load has speed 0.25).
        self._speed: List[float] = [1.0] * npes
        self.epoch = 0
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        #: every measurement window publishes its closing imbalance.
        self._metrics = None

    def attach_metrics(self, registry) -> None:
        """Publish per-window balance readings into ``registry``.

        At each :meth:`reset_loads` (i.e. each rebalance) the closing
        window's max/avg imbalance is observed into the
        ``lb.imbalance`` histogram, and ``lb.epoch`` / ``lb.windows``
        track progress.  Pass ``None`` to detach.
        """
        if registry is None:
            self._metrics = None
            return
        self._metrics = {
            "imbalance": registry.histogram("lb.imbalance", RATIO_BUCKETS),
            "windows": registry.counter("lb.windows"),
            "epoch": registry.gauge("lb.epoch"),
        }
        self._metrics["epoch"].set(self.epoch)

    def register(self, obj: Hashable, pe: int) -> None:
        """Start tracking an object at its initial processor."""
        self._load.setdefault(obj, 0.0)
        self._pe[obj] = pe

    def unregister(self, obj: Hashable) -> None:
        """Stop tracking an object (it finished)."""
        self._load.pop(obj, None)
        self._pe.pop(obj, None)

    def record(self, obj: Hashable, ns: float) -> None:
        """Add ``ns`` of measured work to an object's current window."""
        self._load[obj] = self._load.get(obj, 0.0) + ns

    def record_comm(self, src: Hashable, dst: Hashable, nbytes: int) -> None:
        """Add ``nbytes`` of traffic from ``src`` to ``dst`` to the window.

        Feeds communication-aware strategies (GreedyCommLB); pairs where
        either end is untracked are ignored.
        """
        if src in self._pe and dst in self._pe and src != dst:
            key = (src, dst)
            self._comm[key] = self._comm.get(key, 0) + nbytes

    def comm_graph(self) -> Dict[tuple, int]:
        """Bytes exchanged per directed object pair this window."""
        return dict(self._comm)

    def comm_between(self, a: Hashable, b: Hashable) -> int:
        """Total bytes between two objects, both directions."""
        return self._comm.get((a, b), 0) + self._comm.get((b, a), 0)

    def tracks(self, obj: Hashable) -> bool:
        """Whether ``obj`` is currently registered (live)."""
        return obj in self._pe

    def moved(self, obj: Hashable, pe: int) -> None:
        """Note that an object migrated to ``pe``."""
        self._pe[obj] = pe

    def set_pe_speed(self, pe: int, speed: float) -> None:
        """Record a processor's available speed (1.0 = fully ours)."""
        if not 0.0 < speed <= 1.0:
            raise ValueError(f"speed must be in (0, 1], got {speed}")
        self._speed[pe] = speed

    def pe_speeds(self) -> List[float]:
        """Relative speed per processor."""
        return list(self._speed)

    def loads(self) -> Dict[Hashable, float]:
        """Measured (wall-time) load per object in the current window."""
        return dict(self._load)

    def intrinsic_loads(self) -> Dict[Hashable, float]:
        """Processor-speed-normalized loads: the object's inherent work.

        An object measured on a half-speed processor did half the work its
        wall time suggests; strategies must plan with intrinsic work or
        they will forever chase the slow node's inflation.
        """
        return {obj: wall * self._speed[self._pe[obj]]
                for obj, wall in self._load.items()}

    def placement(self) -> Dict[Hashable, int]:
        """Current processor of each tracked object."""
        return dict(self._pe)

    def pe_loads(self) -> List[float]:
        """Aggregate measured load per processor."""
        out = [0.0] * self.npes
        for obj, load in self._load.items():
            out[self._pe[obj]] += load
        return out

    def imbalance(self) -> float:
        """max/avg processor load (1.0 is perfect balance)."""
        loads = self.pe_loads()
        total = sum(loads)
        if total == 0:
            return 1.0
        avg = total / self.npes
        return max(loads) / avg

    def reset_loads(self) -> None:
        """Open a new measurement window (after a rebalance)."""
        if self._metrics is not None:
            self._metrics["imbalance"].observe(self.imbalance())
            self._metrics["windows"].inc()
        for obj in self._load:
            self._load[obj] = 0.0
        self._comm.clear()
        self.epoch += 1
        if self._metrics is not None:
            self._metrics["epoch"].set(self.epoch)
