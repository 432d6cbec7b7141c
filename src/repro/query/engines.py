"""Query engines over trace entries: filter, aggregate, timeline.

All three consume the plain list-of-dicts form produced by
:func:`repro.kernel.trace.load_trace` and emit deterministic, JSON-able
results — sorted group keys, fixed window boundaries, no host state —
so their output can be fingerprinted the same way the obs report is.
Each engine compiles its expressions once per call
(:meth:`~repro.query.expr.Expr.compile`) and runs the closures per
entry.

The small helpers :func:`window_index`, :func:`trace_makespan` and
:func:`is_number` are shared with :mod:`repro.obs.report`: the report's
imbalance timeline is a specialization of the same attribution rule
(charge an entry to the window containing its event time, clamped to the
run's extent), and both follow one rule for entries that do not fit the
schema — a time, clock, busy or byte value that is not a number is
skipped, never coerced, and an entry without a numeric ``t`` charges
window 0.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.errors import QueryError
from repro.query.expr import Call, Entry, Expr
from repro.query.parser import AggregateSpec, parse, parse_aggregate

__all__ = ["compile_predicate", "filter_entries", "aggregate_entries",
           "timeline_entries", "window_index", "trace_makespan",
           "is_number", "canonical_json"]


def canonical_json(obj: Any) -> str:
    """The one serialization used for keys, dumps, and fingerprints:
    sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_number(v: Any) -> bool:
    """True for the ints and floats a trace carries as quantities
    (``true``/``false`` are flags, not numbers).

    The per-entry loops in this module spell the same test inline — a
    call per value is most of what such a loop costs."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def window_index(t: Any, width: float, windows: int) -> int:
    """Window containing time ``t``, clamped into ``[0, windows - 1]``.

    The lower clamp matters: a negative timestamp (clock skew, synthetic
    entries) must charge the *first* window, not wrap around to the last
    via Python negative indexing.  A ``t`` that is not a number (absent,
    ``null``, a string, NaN) charges the first window too.
    """
    if width <= 0 or not isinstance(t, (int, float)) or isinstance(t, bool):
        return 0
    position = t / width
    if position >= windows - 1:
        return windows - 1
    return int(position) if position > 0 else 0


def trace_makespan(entries: Iterable[Entry]) -> float:
    """Run extent in virtual ns: the max over observer clock snapshots
    and ``end``-entry event times (0.0 for an empty trace).  Values that
    are not numbers — and ``clock`` fields that are not maps — are
    skipped."""
    makespan = 0.0
    for e in entries:
        clock = e.get("clock")
        if isinstance(clock, dict):
            for t in clock.values():
                if (isinstance(t, (int, float)) and t > makespan
                        and not isinstance(t, bool)):
                    makespan = t
        if e.get("ev") == "end":
            t = e.get("t")
            if (isinstance(t, (int, float)) and t > makespan
                    and not isinstance(t, bool)):
                makespan = t
    return makespan


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def _compile(query: Union[str, Expr]) -> Callable[[Entry], Any]:
    """Parse (if needed) and compile one expression."""
    return (parse(query) if isinstance(query, str) else query).compile()


def compile_predicate(query: Union[str, Expr]) -> Callable[[Entry], bool]:
    """Parse (if needed) and compile a query expression to an
    entry -> bool predicate.  Total: never raises on trace data."""
    value = _compile(query)
    return lambda entry: bool(value(entry))


def filter_entries(entries: Iterable[Entry],
                   query: Union[str, Expr, Callable[[Entry], bool]],
                   ) -> List[Entry]:
    """Entries matching ``query`` (a string, parsed tree, or predicate),
    in trace order."""
    pred = query if callable(query) else _compile(query)
    return [e for e in entries if pred(e)]


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


class _Accumulator:
    """One aggregate cell: folded into per entry, finished to a JSON
    scalar."""

    __slots__ = ("n", "total", "lo", "hi")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0
        self.lo: Optional[float] = None
        self.hi: Optional[float] = None

    def finish(self, name: str) -> Any:
        if name == "count":
            return self.n
        if name == "sum":
            return self.total
        if name == "min":
            return self.lo
        if name == "max":
            return self.hi
        return self.total / self.n if self.n else None  # avg


def _compile_fold(call: Call) -> Callable[[_Accumulator, Entry], None]:
    """Compile one aggregate call to ``fold(cell, entry)``."""
    if call.name == "count":
        if not call.args:
            def count_all(acc: _Accumulator, entry: Entry) -> None:
                acc.n += 1
            return count_all
        test = call.args[0].compile()

        def count_if(acc: _Accumulator, entry: Entry) -> None:
            if test(entry):
                acc.n += 1
        return count_if
    value = call.args[0].compile()

    def fold_number(acc: _Accumulator, entry: Entry) -> None:
        v = value(entry)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return
        acc.n += 1
        acc.total += v
        if acc.lo is None or v < acc.lo:
            acc.lo = v
        if acc.hi is None or v > acc.hi:
            acc.hi = v
    return fold_number


def _memoisable(values: List[Any]) -> bool:
    """True when equal-and-same-typed by-values always share one
    canonical JSON text.  Containers do not (``(1,)`` equals ``(1.0,)``),
    nor do float zeros (``0.0 == -0.0``); NaN never equals itself, so a
    memo entry for it could never be hit."""
    for v in values:
        kind = type(v)
        if kind is float:
            if not (v < 0 or v > 0):
                return False
        elif not (v is None or kind is str or kind is int or kind is bool):
            return False
    return True


def aggregate_entries(entries: Iterable[Entry],
                      spec: Union[str, AggregateSpec]) -> Dict[str, Any]:
    """Fold entries through an aggregate spec.

    Returns ``{"rows": [...], "entries": N}`` where each row carries
    ``group`` (the by-field values, absent keys as ``null``) and
    ``aggregates`` keyed by the canonical unparse of each call.  Rows
    are sorted by the canonical JSON of their group values, so output
    order never depends on trace order.  Non-numeric and missing values
    are skipped by sum/min/max/avg (``sum`` of nothing is 0, the others
    are ``null``); without a ``by`` clause there is exactly one row.

    A group *is* its canonical JSON (``1``, ``1.0`` and ``true`` are
    three groups), but that text is computed once per group, not per
    entry: a memo keyed on the by-values and their types finds the cell.
    """
    if isinstance(spec, str):
        spec = parse_aggregate(spec)
    by_names = [f.unparse() for f in spec.by]
    by = [f.compile() for f in spec.by]
    folds = [_compile_fold(a) for a in spec.aggs]
    groups: Dict[str, tuple] = {}
    memo: Dict[tuple, tuple] = {}
    n_entries = 0
    for e in entries:
        n_entries += 1
        key_values = [f(e) for f in by]
        typed = (*key_values, *map(type, key_values))
        try:
            cell = memo.get(typed)
        except TypeError:  # a list- or dict-valued by-field
            cell = None
        if cell is None:
            key = canonical_json(key_values)
            cell = groups.get(key)
            if cell is None:
                cell = (key_values, [_Accumulator() for _ in folds])
                groups[key] = cell
            if _memoisable(key_values):
                memo[typed] = cell
        for fold, acc in zip(folds, cell[1]):
            fold(acc, e)
    if not spec.by and not groups:
        groups[""] = ([], [_Accumulator() for _ in folds])
    rows = []
    for key in sorted(groups):
        key_values, accs = groups[key]
        rows.append({
            "group": dict(zip(by_names, key_values)),
            "aggregates": {call.unparse(): acc.finish(call.name)
                           for call, acc in zip(spec.aggs, accs)},
        })
    return {"rows": rows, "entries": n_entries}


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------


def timeline_entries(entries: List[Entry], windows: int = 8,
                     value: Union[str, Expr, None] = None,
                     where: Union[str, Expr, None] = None,
                     ) -> Dict[str, Any]:
    """Windowed series over the trace: split the makespan into equal
    windows and charge each matching entry to the window containing its
    event time (the obs attribution rule, clamped at both ends).

    ``value`` is an optional expression summed per window (numeric
    results only); every window also reports its matching-entry count.
    An empty or zero-extent trace yields no windows.
    """
    if windows <= 0:
        raise QueryError("timeline needs at least one window")
    pred = _compile(where) if where is not None else None
    value_of = _compile(value) if value is not None else None
    makespan = trace_makespan(entries)
    if makespan <= 0:
        return {"makespan_ns": makespan, "windows": []}
    width = makespan / windows
    counts = [0] * windows
    sums = [0.0] * windows
    for e in entries:
        if pred is not None and not pred(e):
            continue
        w = window_index(e.get("t"), width, windows)
        counts[w] += 1
        if value_of is not None:
            v = value_of(e)
            if is_number(v):
                sums[w] += v
    out = []
    for w in range(windows):
        row: Dict[str, Any] = {"t0": w * width, "t1": (w + 1) * width,
                               "count": counts[w]}
        if value_of is not None:
            row["sum"] = sums[w]
        out.append(row)
    return {"makespan_ns": makespan, "windows": out}
