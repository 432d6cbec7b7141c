#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload × metric.

    python perf/compare.py A.jsonl B.jsonl

Each file holds one run record per line, as ``perf/run.py --out FILE``
appends them (``perf/history.jsonl`` has the same format); a ``.json``
file holding one record or a list of records works too.  ``A`` is the
base of every ratio.

For each workload and each end-to-end metric the row shows both medians
(the median over the set's runs of each run's median), the ratio B/A,
the metric's bound, and a verdict:

``better``      B is better than A by more than A's own run-to-run spread
                (its interquartile range) — and, when the spread exceeds
                the bound, only if every run of B beats every run of A;
                never when A's spread is unknown (one run of a metric
                sampled once per run, such as ``peak_rss_mb``);
``worse``       B is worse than A by more than the bound;
``same``        neither;
``unresolved``  A's run-to-run spread exceeds the bound and the two sets
                overlap, so the data cannot tell — or a side has no value.

A metric whose bound is 0 ("any increase", ``fail_frac``) is judged on
each set's *worst* run, not its median: one failing run out of three
must not disappear.  The metrics and their bounds are the ``end_to_end``
table of ``perf/config.json``; a row whose bound is ``null`` was demoted
(reported by ``run.py``, not judged here).  A set with a single run uses
that run's own quartiles as its spread.  Exit code 1 when any row is
``worse``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

__all__ = ["load_runs", "metric_table", "verdict", "compare", "main"]


def load_runs(path: str) -> List[Dict[str, Any]]:
    """Run records from a JSONL file, a JSON list, or one JSON record."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        return doc if isinstance(doc, list) else [doc]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]


def metric_table() -> List[Dict[str, Any]]:
    """The judged end-to-end metrics: unit, direction, bound, scope."""
    with open(os.path.join(HERE, "config.json")) as fh:
        return [m for m in json.load(fh)["end_to_end"]
                if m["bound"] is not None]


def _samples(runs: List[Dict[str, Any]], workload: str,
             metric: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Per-run medians of one metric, the set's centre (their median;
    the worst of them for a bound of 0) and its spread."""
    name = metric["name"]
    stats = [run["workloads"][workload]["end_to_end"][name]
             for run in runs
             if name in run.get("workloads", {}).get(
                 workload, {}).get("end_to_end", {})]
    if not stats:
        return None
    values = [s["median"] for s in stats]
    if metric["bound"] == 0:
        worst = max if metric["better"] == "lower" else min
        return {"values": values, "median": worst(values), "iqr": None}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    elif stats[0]["n"] >= 2:
        iqr = stats[0]["q3"] - stats[0]["q1"]
    else:
        iqr = None                  # one sample: spread unknown
    return {"values": values, "median": statistics.median(values),
            "iqr": iqr}


def verdict(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]],
            better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one row."""
    if a is None or b is None:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    # How much worse B is, as a share of A (negative: better).
    delta = sign * (b["median"] - a["median"])
    if base:
        worse_by = delta / base
    else:                           # e.g. fail_frac 0: any move is total
        worse_by = math.copysign(math.inf, delta) if delta else 0.0
    known = a["iqr"] is not None
    spread = a["iqr"] / base if known and base else 0.0
    b_beats_a = (max(sign * v for v in b["values"])
                 < min(sign * v for v in a["values"]))
    a_beats_b = (max(sign * v for v in a["values"])
                 < min(sign * v for v in b["values"]))
    if spread > bound and not (b_beats_a or a_beats_b):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if known and worse_by < 0 and -worse_by > spread and (
            spread <= bound or b_beats_a):
        return "better"
    return "same"


def compare(runs_a: List[Dict[str, Any]],
            runs_b: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every workload × end-to-end metric row."""
    workloads: List[str] = []
    for run in runs_a + runs_b:
        for name in run.get("workloads", {}):
            if name not in workloads:
                workloads.append(name)
    rows = []
    for workload in workloads:
        for metric in metric_table():
            if metric["on"] not in (None, workload):
                continue
            a = _samples(runs_a, workload, metric)
            b = _samples(runs_b, workload, metric)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "a": a and a["median"], "b": b and b["median"],
                "ratio": (b["median"] / a["median"]
                          if a and b and a["median"] else None),
                "n_a": len(a["values"]) if a else 0,
                "n_b": len(b["values"]) if b else 0,
                "verdict": verdict(a, b, metric["better"],
                                   metric["bound"])})
    return rows


def _fmt(value: Optional[float]) -> str:
    return f"{value:12.6g}" if value is not None else f"{'-':>12}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]))
    print(f"{'workload':<14} {'metric':<20} {'unit':<8} {'A median':>12} "
          f"{'B median':>12} {'B/A':>8} {'bound':>6} {'runs':>5}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:8.3f}" if row["ratio"] is not None \
            else f"{'-':>8}"
        print(f"{row['workload']:<14} {row['metric']:<20} "
              f"{row['unit']:<8} {_fmt(row['a'])} {_fmt(row['b'])} "
              f"{ratio} {row['bound']:6.2f} "
              f"{row['n_a']:>2}/{row['n_b']:<2}  {row['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
