#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, judged by ``perf/compare.py``.

    python tools/perf_pairs.py REV [--workload W] [--pairs 5] [--seed N]

The protocol ROADMAP item 2 asks of every optimisation PR, as one command:
export ``REV`` (``git archive``) and the working tree (tracked and
untracked-but-not-ignored files, uncommitted edits included) into a
temporary directory, run ``perf/run.py --trace 0`` alternately in the two
exports — parent first in odd pairs, change first in even ones, so that
machine drift and run order land on both sides — then print
``perf/compare.py parent.jsonl change.jsonl``, preceded, per workload, by
each pair's own ``wall_s``, ``setup_s`` and ``peak_rss_mb`` (and
``trace_query``'s ``trace_on_ratio``) and the number of pairs in which the
change read lower (a claimed gain has to win nine in ten on its metric).
``--seed`` is passed through to ``perf/run.py``: a claim has to hold on a
seed not used while the change was written.
Nothing is written under the checkout's ``perf/`` (no ``history.jsonl``
line, no ``perf/out``); the exit code is compare's: 1 when any cell is
``worse``.  A full run (no ``--workload``) takes about 3 minutes per side
per pair.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(side_dir, rev):
    """Unpack ``rev`` — or, for ``None``, the working tree — into ``side_dir``."""
    os.makedirs(side_dir)
    tarball = side_dir + ".tar"
    if rev is not None:
        subprocess.run(["git", "archive", "-o", tarball, rev], cwd=ROOT,
                       check=True)
    else:
        names = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=ROOT, check=True,
            capture_output=True).stdout.split(b"\0")
        present = [n for n in names
                   if n and os.path.lexists(os.path.join(ROOT.encode(), n))]
        subprocess.run(["tar", "cf", tarball, "--null", "-T", "-"], cwd=ROOT,
                       input=b"\0".join(present), check=True)
    subprocess.run(["tar", "xf", tarball, "-C", side_dir], check=True)
    os.remove(tarball)


#: The end-to-end metrics printed pair by pair (all lower-is-better), each
#: for the workloads that report it.
PAIRED = ("wall_s", "setup_s", "peak_rss_mb", "trace_on_ratio")


def print_pairs(tmp):
    """Per workload and ``PAIRED`` metric: both sides' medians pair by
    pair, and in how many pairs the change read lower."""
    values = {}
    for side in ("parent", "change"):
        with open(os.path.join(tmp, side + ".jsonl")) as fh:
            for pair, line in enumerate(fh):
                for name, row in json.loads(line)["workloads"].items():
                    for metric, cell in row["end_to_end"].items():
                        if metric in PAIRED:
                            values.setdefault((name, metric), {}).setdefault(
                                pair, {})[side] = cell["median"]
    for name, metric in sorted(values,
                               key=lambda k: (k[0], PAIRED.index(k[1]))):
        pairs = [p for p in values[name, metric].values() if len(p) == 2]
        wins = sum(p["change"] < p["parent"] for p in pairs)
        print(f"{name} {metric}, parent/change per pair: "
              + "  ".join(f"{p['parent']:.3f}/{p['change']:.3f}"
                          for p in pairs)
              + f"  -> change lower in {wins}/{len(pairs)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV", help="the parent commit")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: perf/run.py's)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="perf_pairs.") as tmp:
        sides = {"parent": args.rev, "change": None}
        for side, rev in sides.items():
            export(os.path.join(tmp, side), rev)
        for pair in range(args.pairs):
            for side in sorted(sides, reverse=pair % 2 == 0):
                print(f"-- pair {pair + 1}/{args.pairs}: {side}", flush=True)
                cmd = [sys.executable, os.path.join("perf", "run.py"),
                       "--trace", "0", "--out",
                       os.path.join(tmp, side + ".jsonl")]
                if args.workload:
                    cmd += ["--workload", args.workload]
                if args.seed is not None:
                    cmd += ["--seed", str(args.seed)]
                run = subprocess.run(cmd, cwd=os.path.join(tmp, side),
                                     stdout=subprocess.DEVNULL)
                if run.returncode:
                    print(f"perf_pairs: {side} run failed "
                          f"(exit {run.returncode})", file=sys.stderr)
                    return 2
        print_pairs(tmp)
        return subprocess.run(
            [sys.executable, os.path.join("perf", "compare.py"),
             os.path.join(tmp, "parent.jsonl"),
             os.path.join(tmp, "change.jsonl")],
            cwd=os.path.join(tmp, "change")).returncode


if __name__ == "__main__":
    sys.exit(main())
