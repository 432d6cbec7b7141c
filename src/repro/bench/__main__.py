"""Regenerate every paper table and figure from the command line.

Usage::

    python -m repro.bench                 # everything
    python -m repro.bench fig9 table2     # just some experiments
    python -m repro.bench -j 4            # fan out over 4 workers
    REPRO_FULL=1 python -m repro.bench fig11   # paper-scale Figure 11

Reports are printed and saved under ``results/``.  Each ``run_<exp>()``
here (the ablations' in :mod:`repro.bench.ablations`) is its experiment's
one definition — it builds, renders and saves its ``results/`` file and
returns the built data — and this CLI is the one writer of every
``results/*.txt`` report.  ``tests/claims/`` runs the same functions into
a temporary directory, asserts the paper's shapes on the returned data
and byte-compares each report with the checked-in file.

Experiments run as independent :mod:`repro.exec` cells: a raising
experiment no longer aborts the rest of the run (and no longer leaves
later result files silently stale) — every experiment runs, a pass/fail
table sums up, and the exit code is nonzero if anything failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time
from typing import Any, Dict, Optional

from repro.bench.ablations import (run_ablation_bigsim_lb,
                                   run_ablation_granularity, run_ablation_io,
                                   run_ablation_mechanisms,
                                   run_ablation_page_size, run_ablation_pose,
                                   run_ablation_smp, run_ablation_swapglobal)
from repro.bench.figures import (FIGURE_PLATFORMS, bigsim_series,
                                 btmz_series, context_switch_series,
                                 full_scale, minimal_swap_rows,
                                 stack_size_series)
from repro.bench.report import emit, render_series, render_table
from repro.bench.tables import (TABLE1_COLUMNS, TABLE2_COLUMNS, table1_rows,
                                table2_rows)
from repro.core.context import SWAP32, SWAP64
from repro.sim import get_platform


def run_table1():
    """Table 1: portability matrix."""
    rows = table1_rows()
    headers = ["Thread"] + [n for n, _ in TABLE1_COLUMNS]
    emit("table1_portability.txt",
         render_table(headers, rows,
                      "Table 1: portability of migratable thread "
                      "implementations (derived from feature flags)"))
    return rows


def run_table2():
    """Table 2: practical flow limits."""
    rows = table2_rows()
    headers = (["Flow of control", "Limiting Factor"]
               + [n for n, _ in TABLE2_COLUMNS])
    emit("table2_limits.txt",
         render_table(headers, rows,
                      "Table 2: approximate practical limits "
                      "(measured by creating flows until refusal)"))
    return rows


def run_context_figure(fig_no: int):
    """One of Figures 4-8."""
    platform = FIGURE_PLATFORMS[fig_no]
    xs, series = context_switch_series(platform)
    emit(f"fig{fig_no}_{platform}.txt",
         render_series("n_flows", xs, series,
                       f"Figure {fig_no}: context switch time (us) vs "
                       f"number of flows — "
                       f"{get_platform(platform).description}"))
    return xs, series


def run_fig9():
    """Figure 9: stack-size sweep."""
    sizes, series = stack_size_series()
    labels = [f"{s // 1024}KB" if s < 1024 * 1024
              else f"{s // (1024 * 1024)}MB" for s in sizes]
    emit("fig9_stacksize.txt",
         render_series("stack", labels, series,
                       "Figure 9: context switch time (us) vs stack size"))
    return sizes, series


def run_fig10():
    """Figure 10: minimal swap routines."""
    rows = minimal_swap_rows()
    streams = "".join(
        f"\n\n{name} instruction stream:\n  "
        + "\n  ".join(f"{i.op:5s} {i.operand}" for i in swap.instructions)
        for name, swap in (("swap32", SWAP32), ("swap64", SWAP64)))
    emit("fig10_minswap.txt",
         render_table(["routine", "instructions", "memory ops",
                       "modeled cycles", "modeled ns @2.2GHz"], rows,
                      "Figure 10: minimal context switching routines "
                      "(paper measured 16 ns / 18 ns on a 2.2 GHz Athlon64)")
         + streams)
    return rows


def run_fig11():
    """Figure 11: BigSim MD scaling."""
    procs, series, targets = bigsim_series()
    scale_note = "full paper scale" if full_scale() else \
        "scaled default (REPRO_FULL=1 for 200,000)"
    emit("fig11_bigsim.txt",
         render_series("host procs", procs, series,
                       f"Figure 11: simulation time per MD step (ms) using "
                       f"{targets} user-level threads ({scale_note})"))
    return procs, series, targets


def run_fig12():
    """Figure 12: BT-MZ with/without LB."""
    results = btmz_series()
    rows = [[label,
             f"{no.makespan_ns / 1e6:.1f}",
             f"{lb.makespan_ns / 1e6:.1f}",
             f"{no.makespan_ns / lb.makespan_ns:.2f}x",
             f"{lb.imbalance_before:.2f} -> {lb.imbalance_after:.2f}",
             lb.migrations]
            for label, no, lb in results]
    emit("fig12_btmz.txt",
         render_table(["config", "no LB (ms)", "with LB (ms)", "speedup",
                       "max/avg load", "migrations"], rows,
                      "Figure 12: BT-MZ execution time with vs without "
                      "thread-migration load balancing"))
    return results


EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "fig4": lambda: run_context_figure(4),
    "fig5": lambda: run_context_figure(5),
    "fig6": lambda: run_context_figure(6),
    "fig7": lambda: run_context_figure(7),
    "fig8": lambda: run_context_figure(8),
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "ablation_page_size": run_ablation_page_size,
    "ablation_granularity": run_ablation_granularity,
    "ablation_swapglobal": run_ablation_swapglobal,
    "ablation_io": run_ablation_io,
    "ablation_smp": run_ablation_smp,
    "ablation_bigsim_lb": run_ablation_bigsim_lb,
    "ablation_pose": run_ablation_pose,
    "ablation_mechanisms": run_ablation_mechanisms,
}


def run_bench_cell(params: Dict[str, Any],
                   seed: Optional[int]) -> Dict[str, Any]:
    """Executor worker for one paper experiment: ``{"experiment": "fig9"}``.

    The experiment writes its own ``results/`` file as a side effect
    (each experiment owns a distinct file, so parallel cells never
    collide); the captured stdout comes back as the payload so the
    parent can print reports in a stable order.
    """
    name = params["experiment"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        EXPERIMENTS[name]()
    return {"experiment": name, "output": buf.getvalue()}


def main(argv: list[str]) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.exec import (Cell, ProgressReporter, SweepExecutor,
                            SweepSpec, backend_from_spec)

    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate paper tables and figures.")
    ap.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                    help=f"subset to run (default: all of "
                         f"{', '.join(EXPERIMENTS)})")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker processes (default 1)")
    args = ap.parse_args(argv)
    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    repeated = sorted({w for w in wanted if wanted.count(w) > 1})
    if repeated:
        print(f"experiment(s) named more than once: {', '.join(repeated)}",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"-j/--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return 2

    t0 = time.time()
    cells = [Cell(experiment=f"bench:{name}",
                  runner="repro.bench.__main__:run_bench_cell",
                  params={"experiment": name})
             for name in wanted]
    executor = SweepExecutor(SweepSpec("bench", cells),
                             backend=backend_from_spec(
                                 "serial" if args.jobs == 1
                                 else f"local:{args.jobs}"))
    reporter = ProgressReporter(executor.hooks)
    try:
        results = {r.cell_id: r for r in executor.run()}
    finally:
        reporter.detach()

    # Print reports in the order the user asked for them, not completion
    # (or merge) order; failures print their traceback where the report
    # would have been and the run keeps going.
    table = []
    failed = []
    for cell in cells:
        result = results[cell.cell_id]
        name = cell.params["experiment"]
        if result.ok:
            sys.stdout.write(result.value["output"])
            table.append([name, "ok", f"{result.duration_s:.2f}"])
        else:
            failed.append(name)
            print(f"\nFAILED {name}:\n{result.error}", end="")
            tail = result.error.strip().splitlines()[-1]
            table.append([name, f"FAILED: {tail}", f"{result.duration_s:.2f}"])

    print("\n" + render_table(["experiment", "status", "time (s)"], table,
                              f"{len(wanted)} experiment(s) in "
                              f"{time.time() - t0:.1f}s"))
    if failed:
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}")
        return 1
    return 0


def console_main() -> None:
    """setuptools console-script entry point (``repro-bench``)."""
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
