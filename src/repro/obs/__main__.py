"""``python -m repro.obs`` — the trace analyzer CLI.

Subcommands:

``report <trace> [--json] [--windows N]``
    Analyze a JSON-lines kernel trace (written by
    ``KernelTracer.dump`` or ``RunObserver.dump``) into per-PE
    utilization, a load-imbalance timeline, the migration table, and
    message histograms.  ``--json`` emits the stable machine-readable
    report (sorted keys; the form golden fingerprints hash).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.kernel.trace import load_trace
from repro.obs.report import build_report, render_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Projections-style analysis of repro kernel traces")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="analyze a JSON-lines trace")
    rep.add_argument("trace", help="trace file from KernelTracer/RunObserver"
                                   ".dump()")
    rep.add_argument("--json", action="store_true",
                     help="emit the stable JSON report instead of tables")
    rep.add_argument("--windows", type=int, default=8,
                     help="imbalance-timeline resolution (default 8)")

    args = parser.parse_args(argv)
    try:
        entries = load_trace(args.trace)
        if not entries:
            print(f"error: {args.trace}: empty trace (no entries to "
                  "analyze)", file=sys.stderr)
            return 2
        report = build_report(entries, windows=args.windows)
    except (OSError, ReproError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            print(render_report(report))
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe: that's fine, but
        # Python would print a traceback at interpreter exit unless the
        # dangling stdout is abandoned first.
        sys.stdout = None
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
