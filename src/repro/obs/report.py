"""Projections-style post-mortem analysis of a kernel trace.

Given a JSON-lines trace written by :class:`~repro.kernel.KernelTracer`
(or its run-wide subclass :class:`~repro.obs.collect.RunObserver`),
:func:`build_report` computes the paper-reproduction's standard views:

* **per-PE utilization** — busy time integrated from the ``busy`` fields
  the observer attributes to each dispatch, against the run makespan;
* **load imbalance over time** — the makespan split into equal windows,
  each scored ``max(busy)/avg(busy)`` across PEs (1.0 = perfect);
* **migration table** — per (src, dst) move counts and bytes, split into
  completed moves and bounce-home returns, matching the
  :class:`~repro.core.migration.ThreadMigrator` counters exactly;
* **message histograms** — size and delivery-latency distributions over
  the fixed bucket layouts from :mod:`repro.obs.metrics`.

Every view degrades gracefully: a plain ``KernelTracer`` dump (no
``busy``/``send``/``migration`` entries) still yields category counts
and whatever the schema carries, with the missing sections marked
absent rather than wrong.  Entries that do not fit the schema follow the
query engines' rule: a ``t``/``clock``/``busy``/``bytes``/``sent`` value
that is not a finite number (NaN and infinities included) is skipped,
never coerced, an entry without one as its ``t`` charges window 0, and a
``migration`` entry without numeric ``src`` and ``dst`` is not a move —
so the report is always valid JSON.  ``--json`` output is fully
deterministic — sorted keys, fixed buckets, no host timestamps — so
fingerprints of it are stable across runs (and are pinned by the
golden-metrics tests).  :func:`fold_metrics` runs the same folds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import QueryError
from repro.obs.metrics import (BYTE_BUCKETS, Histogram, MetricsRegistry,
                               TIME_NS_BUCKETS)
from repro.query.engines import (aggregate_entries, filter_entries,
                                 trace_makespan, window_index)

__all__ = ["build_report", "fold_metrics", "render_report"]

# The report's fixed views are just canned queries over the entries of
# one kind (`ev`); keeping them in the query language makes `python -m
# repro.query` and this report read the trace identically (and documents
# the schema each view depends on).
_IS_NET_DELIVERY = "has(sent) and not skipped and startswith(category, 'net.')"
_IS_DISPATCH = "not skipped"


# ---------------------------------------------------------------------------


def _finite(v: Any) -> bool:
    """A number, not a flag, NaN or infinity (``v - v`` is 0 exactly)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and v - v == 0)


def _by_kind(entries) -> Dict[str, List[Dict[str, Any]]]:
    """The entries of each ``ev`` kind, in trace order: one pass, after
    which each view reads only the kinds it counts."""
    kinds: Dict[str, List[Dict[str, Any]]] = {}
    for e in entries:
        try:
            kinds[e.get("ev")].append(e)
        except KeyError:
            kinds[e.get("ev")] = [e]
        except TypeError:
            pass  # an unhashable ``ev`` (a list, a map) names no kind
    return kinds


def _busy_charges(entries) -> List[tuple]:
    """``(t, pe, ns)`` for every charge in the trace's ``busy`` maps,
    ``t`` the entry's time (``None`` when not a finite number)."""
    charges = []
    for e in entries:
        busy = e.get("busy")
        if isinstance(busy, dict):
            t = e.get("t")
            if not _finite(t):
                t = None
            for pe, ns in busy.items():
                # _finite(ns), spelled inline: this loop runs per charge.
                if (isinstance(ns, (int, float)) and not isinstance(ns, bool)
                        and ns - ns == 0):
                    charges.append((t, pe, ns))
    return charges


def _pe_order(pe: str) -> tuple:
    """PE keys in numeric order; a foreign (non-integer) key sorts last."""
    try:
        return (0, int(pe), pe)
    except ValueError:
        return (1, 0, pe)


def _utilization(charges, makespan: float) -> Dict[str, Any]:
    busy: Dict[str, float] = {}
    for _, pe, ns in charges:
        busy[pe] = busy.get(pe, 0.0) + ns
    pes = sorted(busy, key=_pe_order)
    return {
        "makespan_ns": makespan,
        "per_pe": {pe: {"busy_ns": busy[pe],
                        "util": busy[pe] / makespan if makespan > 0 else 0.0}
                   for pe in pes},
    }


def _imbalance_timeline(charges, makespan: float,
                        windows: int) -> List[Dict[str, Any]]:
    """Windowed max/avg busy-time ratio across PEs.

    Each dispatch's busy charge is attributed to the window containing
    its event time — a discretization (a long dispatch straddling a
    boundary lands entirely in one window), which is exactly what
    Projections' usage profile does at its display resolution.  The
    window index is clamped at *both* ends: an out-of-range timestamp
    (negative, or past the makespan) charges the nearest edge window,
    so Σ(window busy) always equals the trace's total busy time.
    """
    if windows <= 0:
        raise QueryError("timeline needs at least one window")
    if makespan <= 0:
        return []
    pes: set = set()
    per_window: List[Dict[str, float]] = [dict() for _ in range(windows)]
    width = makespan / windows
    for t, pe, ns in charges:
        acc = per_window[window_index(t, width, windows)]
        pes.add(pe)
        acc[pe] = acc.get(pe, 0.0) + ns
    n_pes = len(pes)
    out = []
    for w, acc in enumerate(per_window):
        total = sum(acc.values())
        avg = total / n_pes if n_pes else 0.0
        peak = max(acc.values()) if acc else 0.0
        out.append({
            "t0": w * width,
            "t1": (w + 1) * width,
            "busy_ns": total,
            "imbalance": peak / avg if avg else 0.0,
        })
    return out


def _migration_table(kinds) -> Dict[str, Any]:
    """Per-route move counts/bytes from ``migration`` entries.

    ``migration`` entries come from the ``migration.done`` channel and
    carry the post-fix accounting semantics: a bounce-home rebuild is
    ``returned``, not completed, so the ``completed`` total here agrees
    exactly with ``ThreadMigrator.migrations_completed``.
    """
    routes: Dict[tuple, Dict[str, Any]] = {}
    completed = returned = 0
    bytes_moved = 0
    for e in kinds.get("migration", ()):
        src, dst = e.get("src"), e.get("dst")
        if not (_finite(src) and _finite(dst)):
            continue
        row = routes.setdefault((src, dst),
                                {"moves": 0, "returns": 0, "bytes": 0})
        if e.get("returned"):
            row["returns"] += 1
            returned += 1
        else:
            row["moves"] += 1
            completed += 1
        size = e.get("bytes")
        if _finite(size):
            row["bytes"] += size
            bytes_moved += size
    return {
        "completed": completed,
        "returned": returned,
        "bytes": bytes_moved,
        "routes": [
            {"src": src, "dst": dst, **routes[(src, dst)]}
            for src, dst in sorted(routes)
        ],
    }


def _observe_messages(kinds, sizes: Histogram,
                      latency: Histogram) -> Tuple[int, int]:
    """Observe send sizes and delivery latencies; returns ``(sends,
    bytes)``, an int byte total unlike the histogram's float one."""
    sends = sent_bytes = 0
    for e in kinds.get("send", ()):
        size = e.get("bytes")
        if _finite(size):
            sizes.observe(size)
            sends += 1
            sent_bytes += size
    for e in filter_entries(kinds.get("end", ()), _IS_NET_DELIVERY):
        t, sent = e.get("t"), e["sent"]
        if _finite(t) and _finite(sent):
            latency.observe(t - sent)
    return sends, sent_bytes


def _message_histograms(kinds) -> Dict[str, Any]:
    sizes = Histogram("net.msg_bytes", BYTE_BUCKETS)
    latency = Histogram("net.latency_ns", TIME_NS_BUCKETS)
    _observe_messages(kinds, sizes, latency)
    return {"sizes": sizes.snapshot(), "latency_ns": latency.snapshot()}


def _categories(kinds) -> Dict[str, int]:
    result = aggregate_entries(filter_entries(kinds.get("end", ()),
                                              _IS_DISPATCH),
                               "count() by category")
    counts: Dict[str, int] = {}
    for row in result["rows"]:
        category = row["group"]["category"] or "uncategorized"
        counts[category] = (counts.get(category, 0)
                            + row["aggregates"]["count()"])
    return counts


def fold_metrics(entries: List[Dict[str, Any]],
                 registry: MetricsRegistry) -> MetricsRegistry:
    """Add ``entries`` to ``registry``'s run instruments (created if
    missing, so folding ``[]`` creates them) with :func:`build_report`'s
    folds; a registry shared across runs adds up."""
    r = registry
    kinds = _by_kind(entries)
    categories = _categories(kinds)
    r.counter("kernel.dispatched").inc(sum(categories.values()))
    r.counter("kernel.switches").inc(categories.get("cth.resume", 0))
    sends, sent_bytes = _observe_messages(
        kinds, r.histogram("net.msg_bytes", BYTE_BUCKETS),
        r.histogram("net.latency_ns", TIME_NS_BUCKETS))
    r.counter("net.messages").inc(sends)
    r.counter("net.bytes").inc(sent_bytes)
    moves = _migration_table(kinds)
    r.counter("migration.completed").inc(moves["completed"])
    r.counter("migration.returned").inc(moves["returned"])
    r.counter("migration.bytes").inc(moves["bytes"])
    (written,) = aggregate_entries(kinds.get("checkpoint", ()),
                                   "count(), sum(bytes)")["rows"]
    r.counter("checkpoint.writes").inc(written["aggregates"]["count()"])
    r.counter("checkpoint.bytes").inc(written["aggregates"]["sum(bytes)"])
    return r


# ---------------------------------------------------------------------------


def build_report(entries: List[Dict[str, Any]],
                 registry=None, windows: int = 8) -> Dict[str, Any]:
    """Compute the full report dict from trace ``entries``.

    The result is plain JSON-able data with deterministic ordering; pass
    an optional :class:`MetricsRegistry` to embed its snapshot.
    """
    makespan = trace_makespan(entries)
    charges, kinds = _busy_charges(entries), _by_kind(entries)
    report: Dict[str, Any] = {
        "events": len(entries),
        "utilization": _utilization(charges, makespan),
        "imbalance_timeline": _imbalance_timeline(charges, makespan,
                                                  windows),
        "migrations": _migration_table(kinds),
        "messages": _message_histograms(kinds),
        "categories": _categories(kinds),
    }
    if registry is not None:
        report["metrics"] = registry.snapshot()
    return report


def _fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    lines: List[str] = []
    util = report["utilization"]
    lines.append(f"== run: {report['events']} trace entries, makespan "
                 f"{_fmt_ns(util['makespan_ns'])}")

    lines.append("")
    lines.append("-- per-PE utilization")
    if util["per_pe"]:
        for pe, row in util["per_pe"].items():
            bar = "#" * int(round(row["util"] * 40))
            lines.append(f"  pe{pe:>3}  {_fmt_ns(row['busy_ns']):>10}  "
                         f"{row['util'] * 100:5.1f}%  {bar}")
    else:
        lines.append("  (trace carries no busy attribution — record it "
                     "with repro.obs.RunObserver)")

    timeline = report["imbalance_timeline"]
    if timeline:
        lines.append("")
        lines.append("-- load imbalance over time (max/avg busy per window;"
                     " 1.00 = balanced)")
        for w in timeline:
            mark = "*" * int(round(min(w["imbalance"], 5.0) * 8))
            lines.append(f"  [{_fmt_ns(w['t0']):>10} .. "
                         f"{_fmt_ns(w['t1']):>10}]  "
                         f"{w['imbalance']:5.2f}  {mark}")

    mig = report["migrations"]
    lines.append("")
    lines.append(f"-- migrations: {mig['completed']} completed, "
                 f"{mig['returned']} returned, {mig['bytes']}B shipped")
    for row in mig["routes"]:
        lines.append(f"  pe{row['src']} -> pe{row['dst']}: "
                     f"{row['moves']} moves, {row['returns']} returns, "
                     f"{row['bytes']}B")

    msgs = report["messages"]
    lines.append("")
    lines.append(f"-- messages: {msgs['sizes']['count']} sends, "
                 f"{msgs['sizes']['total']:.0f}B total")
    for label, h in (("size", msgs["sizes"]),
                     ("latency", msgs["latency_ns"])):
        if not h["count"]:
            continue
        lines.append(f"   {label} histogram:")
        for bucket, n in h["buckets"].items():
            if n:
                lines.append(f"     {bucket:>12}  {n}")

    cats = report["categories"]
    if cats:
        lines.append("")
        lines.append("-- dispatches by category")
        for cat in sorted(cats):
            lines.append(f"  {cat:<24} {cats[cat]}")

    if "metrics" in report:
        m = report["metrics"]
        lines.append("")
        lines.append("-- metrics registry")
        for name, v in m["counters"].items():
            lines.append(f"  {name:<32} {v}")
        for name, v in m["gauges"].items():
            lines.append(f"  {name:<32} {v:g}")
    return "\n".join(lines)
