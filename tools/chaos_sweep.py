#!/usr/bin/env python3
"""Sweep chaos seeds over the standard workloads and report the findings.

Runs every selected workload under N seeded fault schedules — fanned out
over ``--jobs`` worker processes through :mod:`repro.exec` — prints a
per-seed outcome table, writes the full machine-readable results to
``results/chaos_sweep.json``, and exits nonzero if any run produced a
*finding* (an invariant violation or an escaped exception).  Failing
runs are shrunk to a minimal still-failing schedule (``--shrink``) and
printed as runnable repro scripts.

Results are merged in cell-id order, so the output file is byte-identical
whatever ``--jobs`` is; an empty sweep (``-n 0``) is refused with exit
code 2 instead of "passing" vacuously.

Examples::

    python tools/chaos_sweep.py                          # all workloads, 20 seeds
    python tools/chaos_sweep.py -w stencil -n 50 -j 4
    python tools/chaos_sweep.py --crash-rate 0.4 --shrink
    python tools/chaos_sweep.py --cache .exec-cache      # skip computed cells
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chaos import (STANDARD_RATES, STANDARD_WORKLOADS,  # noqa: E402
                         WORKLOADS, ChaosRunner, FaultConfig)
from repro.errors import ChaosError  # noqa: E402
from repro.exec import (Cell, ProgressReporter, ResultCache,  # noqa: E402
                        SweepExecutor, SweepSpec, fault_config_params,
                        backend_from_spec)

OUT = os.path.join(os.path.dirname(__file__), "..", "results",
                   "chaos_sweep.json")

STANDARD = sorted(cls.name for cls in STANDARD_WORKLOADS)

#: Command-line flag -> the ``FaultConfig`` rate it sets.
RATE_FLAGS = {
    "--drop-rate": "drop_rate", "--delay-rate": "delay_rate",
    "--reorder-rate": "reorder_rate", "--abort-rate": "migrate_abort_rate",
    "--bounce-rate": "migrate_bounce_rate",
    "--ckpt-error-rate": "ckpt_error_rate",
    "--ckpt-corrupt-rate": "ckpt_corrupt_rate",
    "--crash-rate": "crash_rate", "--evac-rate": "evac_rate",
}

#: The worker entry point every chaos cell names.
RUNNER = "repro.exec.runners:run_chaos_cell"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-w", "--workload", action="append",
                    choices=STANDARD, default=None,
                    help="workload to sweep (repeatable; default: all)")
    ap.add_argument("-n", "--seeds", type=int, default=20,
                    help="number of seeds (default 20)")
    ap.add_argument("--start-seed", type=int, default=0,
                    help="first seed (default 0)")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker processes (default 1: serial reference; "
                         "any value produces byte-identical results)")
    ap.add_argument("--cache", metavar="DIR", default=None,
                    help="result-cache directory: cells whose key hash "
                         "already has a result are skipped")
    ap.add_argument("--force", action="store_true",
                    help="recompute cached cells (still refreshes the cache)")
    for flag, rate in RATE_FLAGS.items():
        ap.add_argument(flag, dest=rate, type=float,
                        default=STANDARD_RATES[rate])
    ap.add_argument("--shrink", action="store_true",
                    help="shrink failing schedules to minimal repros")
    ap.add_argument("-o", "--output", default=OUT,
                    help="JSON output path (default results/chaos_sweep.json)")
    return ap.parse_args(argv)


def build_spec(names, seeds, config: FaultConfig) -> SweepSpec:
    """The sweep grid: one cell per (workload, config, seed)."""
    rates = fault_config_params(config)
    cells = [Cell(experiment=f"chaos:{name}", runner=RUNNER,
                  params={"workload": name, "config": rates}, seed=seed)
             for name in names for seed in seeds]
    return SweepSpec("chaos_sweep", cells)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seeds < 1:
        print(f"chaos_sweep: refusing an empty sweep — -n/--seeds must be "
              f">= 1 (got {args.seeds}); an empty sweep would write an "
              f"empty results file and exit 0 as if it passed",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"chaos_sweep: -j/--jobs must be >= 1 (got {args.jobs})",
              file=sys.stderr)
        return 2
    try:
        config = FaultConfig(**{rate: getattr(args, rate)
                                for rate in RATE_FLAGS.values()})
    except ChaosError as e:
        print(f"chaos_sweep: {e}", file=sys.stderr)
        return 2
    seeds = range(args.start_seed, args.start_seed + args.seeds)
    names = sorted(set(args.workload or STANDARD))

    spec = build_spec(names, seeds, config)
    executor = SweepExecutor(
        spec, backend=backend_from_spec(
            "serial" if args.jobs == 1 else f"local:{args.jobs}"),
        cache=ResultCache(args.cache) if args.cache else None,
        force=args.force)
    reporter = ProgressReporter(executor.hooks)
    try:
        cell_results = executor.run()
    finally:
        reporter.detach()

    rows = [r.value for r in cell_results if r.ok]
    harness_errors = [r for r in cell_results if not r.ok]
    findings = [row for row in rows
                if row["outcome"] in ("violation", "error")]

    for name in names:
        wl_rows = [row for row in rows if row["workload"] == name]
        print(f"== {name}: {len(wl_rows)} seeds ==")
        tally = {}
        for row in wl_rows:
            tally[row["outcome"]] = tally.get(row["outcome"], 0) + 1
            if row["outcome"] in ("violation", "error"):
                print(f"  FINDING [{row['workload']} seed={row['seed']}] "
                      f"{row['outcome']} ({row['detail']})")
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())))

    for row in findings:
        # Re-materialize the deterministic run in-process: the worker
        # shipped plain data, the shrinker needs live FaultEvents.
        runner = ChaosRunner(WORKLOADS[row["workload"]](), config)
        result = runner.run_seed(row["seed"])
        schedule = result.schedule
        if args.shrink and schedule:
            schedule = runner.shrink(schedule)
            print(f"\n-- shrunk {result.workload} seed={result.seed} from "
                  f"{len(result.schedule)} to {len(schedule)} fault(s) --")
            result = runner.replay(schedule)
        print(f"\n-- repro script ({result.workload}, "
              f"outcome {result.outcome}) --")
        print(runner.repro_script(result))

    for r in harness_errors:
        print(f"\nHARNESS ERROR in cell {r.cell_id} "
              f"(attempts={r.attempts}):\n{r.error}", file=sys.stderr)

    payload = {
        "config": {k: v for k, v in fault_config_params(config).items()
                   if k.endswith("_rate")},
        "seeds": [int(s) for s in seeds],
        "results": rows,
        "findings": len(findings),
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {len(rows)} results ({len(spec)} cells: "
          f"{len(names)} workload(s) x {args.seeds} seed(s)) "
          f"to {args.output}")
    if harness_errors:
        print(f"{len(harness_errors)} harness error(s) — exiting nonzero")
        return 1
    if findings:
        print(f"{len(findings)} chaos finding(s) — exiting nonzero")
        return 1
    print("no findings: every run passed or failed cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
