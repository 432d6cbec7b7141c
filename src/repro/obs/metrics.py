"""The metrics registry: counters, gauges, deterministic histograms.

The paper's second half is a measurement argument, so the reproduction
gets a first-class metrics layer: a :class:`MetricsRegistry` holds named
:class:`Counter`\\ s, :class:`Gauge`\\ s, and :class:`Histogram`\\ s that
observability subscribers (see :mod:`repro.obs.collect`) populate from
the kernel's hook bus.  Everything here is engineered for determinism:

* histogram bucket layouts are **fixed at creation** (the default byte
  and nanosecond layouts below never depend on observed data), so two
  identical runs produce byte-identical snapshots;
* :meth:`MetricsRegistry.snapshot` renders every instrument in sorted
  name order with plain JSON-able values — the stable form the golden
  metrics fingerprints hash;
* nothing in this module reads the host clock or any RNG.  Host time
  is measured from outside ``src/`` (``perf/``) and stays out of the
  registry on purpose.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.balance.instrument import RATIO_BUCKETS
from repro.errors import ReproError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "BYTE_BUCKETS", "TIME_NS_BUCKETS", "RATIO_BUCKETS"]

#: Message/image sizes: powers of four from 64 B to 16 MiB.
BYTE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216)

#: Virtual durations: decades from 1 µs to 1 s (in nanoseconds).
TIME_NS_BUCKETS: Tuple[float, ...] = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


class Counter:
    """A monotonically increasing count (events, bytes, moves)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (current utilization, epoch, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket distribution: counts per ``value <= edge`` bucket.

    The bucket layout is immutable after construction — never derived
    from the data — so identical runs bucket identically and snapshots
    compare byte-for-byte.
    """

    __slots__ = ("name", "edges", "counts", "count", "total")

    def __init__(self, name: str, edges: Sequence[float] = BYTE_BUCKETS):
        if not edges or list(edges) != sorted(edges):
            raise ReproError(
                f"histogram {name!r} needs ascending bucket edges")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        #: One count per edge plus the +inf overflow bucket.
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.edges, v)] += 1
        self.count += 1
        self.total += v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        buckets = {f"le_{edge:g}": n
                   for edge, n in zip(self.edges, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {"buckets": buckets, "count": self.count,
                "total": self.total}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted in name order.

    One registry per observed run.  Names are namespaced with dots by
    convention (``net.messages``, ``migration.bytes``, ``pe0.busy_ns``);
    a name identifies exactly one instrument kind — asking for a counter
    named like an existing gauge is an error, not a shadow.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access ----------------------------------------------

    def _claim(self, name: str, kind: Dict) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not kind and name in table:
                raise ReproError(
                    f"metric {name!r} already exists with a different kind")

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._claim(name, self._counters)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._claim(name, self._gauges)
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  edges: Sequence[float] = BYTE_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._claim(name, self._histograms)
            h = self._histograms[name] = Histogram(name, edges)
        elif tuple(float(e) for e in edges) != h.edges:
            raise ReproError(
                f"histogram {name!r} re-requested with different edges")
        return h

    def get(self, name: str) -> Optional[Any]:
        """Look up an existing instrument of any kind, or ``None``."""
        return (self._counters.get(name) or self._gauges.get(name)
                or self._histograms.get(name))

    # -- output ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Stable JSON-able view: every instrument, sorted by name."""
        return {
            "counters": {n: self._counters[n].value
                         for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value
                       for n in sorted(self._gauges)},
            "histograms": {n: self._histograms[n].snapshot()
                           for n in sorted(self._histograms)},
        }

    def render(self) -> str:
        """Human-readable dump of the registry, sorted by name."""
        lines = []
        for name in sorted(self._counters):
            lines.append(f"{name:<32} {self._counters[name].value}")
        for name in sorted(self._gauges):
            lines.append(f"{name:<32} {self._gauges[name].value:g}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            lines.append(f"{name:<32} n={h.count} mean={h.mean:g} "
                         f"total={h.total:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MetricsRegistry {len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms>")
