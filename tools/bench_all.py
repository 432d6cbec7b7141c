#!/usr/bin/env python3
"""The perf-regression gate: every subsystem's micro-bench, one file.

Runs the kernel/cancel/compiled-switch/migration/executor/serve-dedupe/
lint micro-benches (the workers in
:mod:`repro.obs.benches`) through a serial ``repro.exec`` sweep, compares
each bench's primary metric against the checked-in baseline
``BENCH_repro.json`` at the repo root, and **exits nonzero when any
metric regressed by more than 20%**.  On a clean pass the fresh numbers
replace the baseline, so the file doubles as the bench trajectory::

    PYTHONPATH=src python tools/bench_all.py            # full gate
    PYTHONPATH=src python tools/bench_all.py --check    # CI smoke

``--check`` runs tiny cell sizes and exercises only the mechanics — the
workers, the sweep, the baseline load, the comparison arithmetic — with
no timing assertions and no baseline rewrite; host-timing thresholds are
meaningless on a loaded 1-CPU CI container, so the smoke proves the gate
*runs* and the full mode stays an operator tool (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

BASELINE = os.path.join(ROOT, "BENCH_repro.json")

#: Regression threshold: a primary metric more than 20% over baseline fails.
THRESHOLD = 1.20

#: bench name -> (worker dotted path, full params, --check params,
#:               primary metric key).
BENCHES = {
    "kernel_dispatch": (
        "repro.obs.benches:run_kernel_bench",
        {"events": 20_000, "repeats": 3},
        {"events": 200, "repeats": 1},
        "ns_per_event"),
    "kernel_cancel": (
        "repro.obs.benches:run_cancel_bench",
        {"events": 20_000, "repeats": 3},
        {"events": 200, "repeats": 1},
        "ns_per_event"),
    "migration": (
        "repro.obs.benches:run_migration_bench",
        {"ranks": 8, "pes": 2, "iterations": 2, "repeats": 2},
        {"ranks": 4, "pes": 2, "iterations": 1, "repeats": 1},
        "ns_per_migration"),
    "compiled_switch": (
        "repro.obs.benches:run_compiled_switch",
        {"flows": 5_000, "rounds": 4, "repeats": 3},
        {"flows": 50, "rounds": 2, "repeats": 1},
        "ns_per_dispatch"),
    "exec_overhead": (
        "repro.obs.benches:run_exec_bench",
        {"cells": 64, "repeats": 3},
        {"cells": 4, "repeats": 1},
        "ns_per_cell"),
    "serve_dedupe": (
        "repro.obs.benches:run_serve_dedupe",
        {"cells": 256, "repeats": 3},
        {"cells": 4, "repeats": 1},
        "ns_per_cell"),
    "query_filter": (
        "repro.obs.benches:run_query_filter",
        {"entries": 100_000, "repeats": 3},
        {"entries": 500, "repeats": 1},
        "ns_per_entry"),
    "lint_flow": (
        "repro.obs.benches:run_lint_bench",
        {"paths": ["src", "examples"], "flow": True, "repeats": 2},
        {"paths": ["tools"], "flow": False, "repeats": 1},
        "ns_per_file"),
}


def run_benches(check: bool) -> dict:
    """Run every bench cell through a serial sweep; returns name->payload."""
    from repro.exec import Cell, SweepExecutor, SweepSpec

    cells = [Cell(experiment=name, runner=runner,
                  params=(small if check else full), seed=0)
             for name, (runner, full, small, _metric) in
             sorted(BENCHES.items())]
    results = SweepExecutor(SweepSpec(name="bench-all", cells=cells)).run()
    out = {}
    by_experiment = {r.cell_id.split("/")[0]: r for r in results}
    for name in BENCHES:
        r = by_experiment[name]
        if not r.ok:
            raise SystemExit(f"bench {name!r} failed:\n{r.error}")
        out[name] = r.value
    return out


def compare(fresh: dict, baseline: dict) -> list:
    """Regressions beyond THRESHOLD: [(bench, metric, old, new, ratio)]."""
    out = []
    old_benches = baseline.get("benches", {})
    for name, (_runner, _full, _small, metric) in sorted(BENCHES.items()):
        old = old_benches.get(name, {}).get(metric)
        new = fresh[name].get(metric)
        if old is None or new is None or old <= 0:
            continue  # new bench or metric: nothing to regress against
        ratio = new / old
        if ratio > THRESHOLD:
            out.append((name, metric, old, new, ratio))
    return out


def load_baseline() -> dict:
    if not os.path.exists(BASELINE):
        return {}
    with open(BASELINE) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI smoke: tiny sizes, comparison mechanics only, no timing "
             "assertions, baseline left untouched")
    args = parser.parse_args(argv)

    baseline = load_baseline()
    fresh = run_benches(check=args.check)

    print(f"{'bench':<18} {'metric':<18} {'baseline':>12} {'fresh':>12} "
          f"{'ratio':>7}")
    regressions = compare(fresh, baseline)
    flagged = {name for name, *_ in regressions}
    for name, (_r, _f, _s, metric) in sorted(BENCHES.items()):
        old = baseline.get("benches", {}).get(name, {}).get(metric)
        new = fresh[name][metric]
        ratio = f"{new / old:7.2f}" if old else f"{'-':>7}"
        mark = "  REGRESSED" if name in flagged and not args.check else ""
        old_txt = f"{old:12.1f}" if old else f"{'-':>12}"
        print(f"{name:<18} {metric:<18} {old_txt} {new:12.1f} "
              f"{ratio}{mark}")

    if args.check:
        # The smoke only proves the pipeline end-to-end: workers ran,
        # the baseline parsed, the comparison arithmetic executed.
        print(f"--check ok: {len(fresh)} benches ran, baseline "
              f"{'loaded' if baseline else 'absent'}, "
              f"{len(regressions)} ratio(s) computed (not asserted)")
        return 0

    if regressions:
        for name, metric, old, new, ratio in regressions:
            print(f"FAIL: {name}.{metric} regressed x{ratio:.2f} "
                  f"({old:.1f} -> {new:.1f}; threshold x{THRESHOLD})",
                  file=sys.stderr)
        print(f"baseline {os.path.relpath(BASELINE, ROOT)} left untouched",
              file=sys.stderr)
        return 1

    doc = {
        "benchmark": "tools/bench_all.py",
        "threshold": THRESHOLD,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "benches": fresh,
        # Kept across rewrites: the note is where a deliberate re-record
        # (a dropped entry, a changed methodology) explains itself.
        "note": baseline.get("note") or (
            "primary metrics are host-side ns/op, best-of-N; the gate "
            "fails on >20% regression against the previous run of this "
            "file"),
    }
    with open(BASELINE, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(BASELINE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
