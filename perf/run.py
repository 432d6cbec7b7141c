#!/usr/bin/env python3
"""End-to-end benchmark: seven workloads, per-layer host-time attribution.

    python perf/run.py                      # every workload, human table
    python perf/run.py --workload flows_msg --seed 7
    python perf/run.py --check              # tiny sizes, checks only
    python perf/run.py --repin              # rewrite perf/expected.json

and, as ``BENCHMARK.json`` names it for the driver::

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in fresh ``python`` subprocesses (``PYTHONHASHSEED=0``):
set-up-only children, then one measuring child (``setup_samples`` set-ups
in all) that does set-up → one untimed first repetition → timed repetitions for
``--seconds`` (``gc.collect()`` and the workload's ``reset`` between
them, outside the timed region) → with tracing on, one more repetition
under the span shim (:mod:`spans`).  End-to-end metrics come from the
untraced repetitions only.  A run of all workloads visits each of them
``passes`` times in turn and pools the samples, so that a slow minute of
the machine lands on a share of every workload's samples instead of on
all of one workload's.

The box this runs on slows by 20–50 % for minutes at a time, so what the
clock reads is too unsteady to judge a change by.  A fixed calibration
kernel is therefore timed just before and just after every repetition
and every set-up child, and ``wall_s`` and ``setup_s`` are reported in
*reference-box seconds*: the clock's reading times ``calibration_ref_s``
(config.json) over the calibration next to it.  The clock's own readings
are kept as the per-layer metrics ``wall_raw_s`` and ``setup_raw_s``.

This is a deterministic simulator: *host* time is what is measured,
*simulated* results must not move, and every repetition's semantic
digests are compared with the first repetition's and — for the default
seed — with the digests pinned in ``expected.json``.  Any failed check
makes ``failed`` > 0 and the exit code nonzero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
HISTORY = os.path.join(HERE, "history.jsonl")
sys.path.insert(0, HERE)

from spans import EXACT_COUNTS, LAYERS  # noqa: E402 - stdlib only
from workloads import PHASES  # noqa: E402 - imports repro in setup()

#: Counts a workload reports from its own results (``Verdict.counts``);
#: the rest of the exact counts come from the span shim's probes.
WORKLOAD_COUNTS = [
    "flows.compile_s", "chaos.faults", "chaos.detected", "exec.cells",
    "exec.cache_hits", "exec.cache_misses", "serve.submits",
    "serve.deduped", "serve.journal_appends", "serve.submit_p90_ms",
    "obs.entries", "obs.trace_bytes", "query.entries_scanned"]

_UNITS = {"flows.compile_s": "s", "serve.submit_p90_ms": "ms",
          "kernel.ns_per_event": "ns", "query.ns_per_entry": "ns",
          "sim.bytes": "bytes", "vm.bytes_copied": "bytes",
          "core.pup_bytes": "bytes", "obs.trace_bytes": "bytes",
          "trace_overhead_frac": "ratio", "traced_wall_s": "s"}


def load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def load_config() -> Dict[str, Any]:
    return load_json(os.path.join(HERE, "config.json"))


def declared_metrics(config: Dict[str, Any]):
    """``BENCHMARK.json``'s ``end_to_end`` and ``per_layer`` lists.

    ``config.json``'s ``end_to_end`` table is the one table of end-to-end
    metrics.  The driver wants every ``end_to_end`` metric on every
    workload, never zero and with a bound, so the rows that are scoped
    to one workload (``on``), ``fail_frac`` (bound 0) and demoted rows
    (bound ``null``: reported, not judged) go to its ``per_layer`` list,
    after every per-layer metric in print order.  A self-test pins
    ``BENCHMARK.json`` to these two lists.
    """
    end_to_end = [{k: m[k] for k in ("name", "unit", "better", "bound")}
                  for m in config["end_to_end"]
                  if m["on"] is None and m["bound"]]
    per_layer = []

    def add(name, unit, better="lower"):
        per_layer.append({"name": name, "unit": unit, "better": better})

    for layer in LAYERS + ("harness",):
        add(f"{layer}.self_s", "s")
    for layer in LAYERS:
        add(f"{layer}.calls", "count")
    add("traced_wall_s", "s")
    add("trace_overhead_frac", "ratio")
    add("wall_raw_s", "s")
    add("setup_raw_s", "s")
    add("calib_ms", "ms")
    for phase in PHASES + ["first_rep"]:
        add(f"phase.{phase}_s", "s")
    for name in list(EXACT_COUNTS) + WORKLOAD_COUNTS + [
            "kernel.ns_per_event", "query.ns_per_entry"]:
        add(name, _UNITS.get(name, "count"))
    bounded = {m["name"] for m in end_to_end}
    for metric in config["end_to_end"]:
        if metric["name"] not in bounded:
            add(metric["name"], metric["unit"], metric["better"])
    return end_to_end, per_layer


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and n of a sample (n=1: all three equal)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_CALIBRATION_SIZE = 60000
_CALIBRATION_BIG = 8 * 1024 * 1024      # 4-byte entries: 32 MB
_calibration_tables: Optional[tuple] = None


def calibration_kernel() -> int:
    """A fixed piece of interpreter-bound work that no file of the
    repository can change.  On the quiet box a quarter of its time goes
    to integer arithmetic (the interpreter loop), a quarter to dict
    look-ups and scattered list reads over tables that fit the level-2
    cache, and half to scattered reads of a 32 MB array that does not:
    slow spells of the box hit the three differently, and hit the
    memory-heavy workloads (``flows_drain``, ``mech_figs``) as they hit
    the last.  The tables are built once and the kernel allocates no
    container, so its time does not depend on the state the program left
    the allocator or the garbage collector in."""
    global _calibration_tables
    if _calibration_tables is None:
        n = _CALIBRATION_SIZE
        _calibration_tables = (
            list(range(n)), {i: (i * 7919) % n for i in range(n)},
            array.array("i", bytes(range(256))) * (_CALIBRATION_BIG // 64))
    table, index, big = _calibration_tables
    total = 0
    for i in range(3 * _CALIBRATION_SIZE // 4):
        total += i * i % 7
    for i in range(0, _CALIBRATION_SIZE, 2):
        total += table[index[i]]
    size = len(big)
    for _ in range(30000):
        i = (i * 1103515245 + 12345) % size
        total += big[i]
    return total


def calibrate() -> float:
    """Median host seconds of seven runs of the calibration kernel: the
    machine's speed of the moment.  ``calibration_ref_s / calibrate()``
    turns a time measured next to it into reference-box seconds."""
    calibration_kernel()            # builds the tables, warms the caches
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the measuring child
# ---------------------------------------------------------------------------

class Phases:
    """``with phases("fig4"):`` accumulates host seconds per phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - t0)


class Ledger:
    """Operations attempted and failed; an operation is a repetition, a
    correctness check, or a digest comparison."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def child_main(args: argparse.Namespace) -> int:
    """Set up one workload, repeat it, print one JSON line."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import repro  # noqa: F401 - fail before any result is printed
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perf/run.py: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 2
    config = load_config()
    sizes = config["sizes"][args.mode][args.workload]
    workload = WORKLOADS[args.workload]()
    workload.setup(sizes, args.seed)
    result: Dict[str, Any] = {"workload": args.workload,
                              "setup_s": time.time() - args.t0}
    if args.setup_only:
        workload.teardown()
        print(json.dumps(result))
        return 0

    ledger = Ledger()
    pinned = None
    if os.path.exists(args.expected):
        expected = load_json(args.expected)
        if expected.get("seed") == args.seed:
            pinned = expected.get(args.mode, {}).get(args.workload)
    first: Dict[str, str] = {}
    counts_seen: Dict[str, float] = {}

    def one_rep(label: str, traced: bool = False, before=None, after=None):
        """Run and verify one repetition; returns (wall, calibration,
        phases, verdict), the calibration taken just before and just
        after the repetition."""
        gc.collect()
        workload.reset()
        phases = Phases()
        calib = calibrate()
        if before:
            before()
        t0 = time.perf_counter()
        try:
            out = workload.rep(phases, traced)
        finally:
            wall = time.perf_counter() - t0
            if after:
                after()
        calib = (calib + calibrate()) / 2
        verdict = workload.verify(out)
        ledger.record(f"{label}: repetition completed", True)
        for name, ok in verdict.checks:
            ledger.record(f"{label}: {name}", bool(ok))
        for key, value in verdict.semantic.items():
            got = digest(value)
            if not first.get(key):
                first[key] = got
                if pinned is not None:
                    ledger.record(f"{label}: {key} digest {got} == pinned "
                                  f"{pinned.get(key)}",
                                  pinned.get(key) == got)
            else:
                ledger.record(f"{label}: {key} digest equals first "
                              f"repetition's", first[key] == got)
        for key, value in verdict.counts.items():
            if key.endswith(("_s", "_ms")):
                continue            # host timings, not exact counts
            if key in counts_seen:
                ledger.record(f"{label}: count {key} repeats exactly",
                              counts_seen[key] == value)
            counts_seen[key] = value
        return wall, calib, phases.seconds, verdict

    walls: List[float] = []
    calibs: List[float] = []
    phase_samples: Dict[str, List[float]] = {}
    scoped: Dict[str, List[float]] = {}
    traced_result = None
    try:
        result["first_rep_s"] = one_rep("first")[0]
        t_start = time.perf_counter()
        while (len(walls) < args.min_reps
               or time.perf_counter() - t_start < args.seconds):
            wall, calib, seconds, verdict = one_rep(f"rep{len(walls) + 1}")
            walls.append(wall)
            calibs.append(calib)
            for name, value in seconds.items():
                phase_samples.setdefault(name, []).append(value)
            for name, value in verdict.scoped.items():
                scoped.setdefault(name, []).append(value)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            + workload.children_rss_mb())
        if args.trace:
            traced_result = traced_rep(args, workload, one_rep)
    except Exception:               # noqa: BLE001 - reported, not hidden
        ledger.record("exception:\n" + traceback.format_exc(), False)
    finally:
        workload.teardown()
    result.update(walls=walls, calibs=calibs, phases=phase_samples,
                  scoped=scoped,
                  digests=first, traced=traced_result,
                  attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures,
                  fs_type=getattr(workload, "fs_type", None))
    print(json.dumps(result))
    return 0


def traced_rep(args, workload, one_rep) -> Dict[str, Any]:
    """One repetition under the span shim; per-layer numbers."""
    from spans import Shim, SpanRecorder
    recorder = SpanRecorder()
    shim = Shim(recorder=recorder)
    targets = shim.discover()   # imports every layer module, untimed

    def before():
        shim.install()
        recorder.begin_root(args.workload)

    def after():
        try:
            shim.uninstall()
        finally:
            recorder.end_root()

    wall, calib, seconds, verdict = one_rep("traced", True, before, after)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_jsonl(
        os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"), "traced")
    with open(os.path.join(OUT_DIR, f"{args.workload}.targets.json"),
              "w") as fh:
        json.dump({"calls": recorder.target_calls,
                   "dispatches": recorder.dispatches,
                   "unresolved": shim.unresolved}, fh, indent=1,
                  sort_keys=True)
    shim_counts, missing = shim.exact_counts()
    counts = dict(verdict.counts, **shim_counts)
    unresolved = shim.unresolved + missing
    return {"wall_s": recorder.root_duration, "calib": calib,
            "self_s": recorder.self_s,
            "calls": recorder.calls, "counts": counts,
            "spans_kept": len(recorder.spans),
            "spans_dropped": recorder.dropped, "unresolved": unresolved,
            "targets": len(targets)}


# ---------------------------------------------------------------------------
# the parent: spawn, summarise, print
# ---------------------------------------------------------------------------

def spawn_child(workload: str, args: argparse.Namespace, mode: str,
                extra: List[str]) -> Optional[Dict[str, Any]]:
    """Run one child; its last stdout line is its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--mode", mode, "--expected", args.expected,
           "--t0", repr(time.time())] + extra
    # Its own session, so that a child that hangs is killed together
    # with the service it started.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perf/run.py: {workload} child timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def measure(names: List[str], args: argparse.Namespace,
            config: Dict[str, Any], mode: str) -> Optional[Dict[str, Dict]]:
    """Measure the named workloads; ``{name: summary}`` (None: a child
    could not run).

    A run of several workloads at default sizes takes ``passes`` turns
    through them, each turn with a fresh measuring child per workload
    that gets its share of ``--seconds``, and pools the samples, so that a
    slow minute of the machine lands on a share of every workload's
    samples.  A run of one workload is what the driver makes 158 times
    within a time limit: one turn.  Every child's set-up is a ``setup_s``
    sample; set-up-only children make the number up to ``setup_samples``.
    The traced repetition follows the last turn's timed repetitions;
    ``--seconds`` is the timed budget whatever ``--trace`` says.
    """
    check = mode == "check"
    passes = 1 if check or len(names) == 1 else config["passes"]
    setup_only = 0 if check else -(-config["setup_samples"] // passes) - 1
    min_reps = 1 if check else -(-config["min_reps"] // passes)
    raws: Dict[str, List[Dict]] = {name: [] for name in names}
    setups: Dict[str, Dict[str, List[float]]] = {
        name: {"seconds": [], "calibs": []} for name in names}
    for turn in range(passes):
        traced = args.trace != 0 and turn == passes - 1
        for name in names:
            for extra in [["--setup-only"]] * setup_only + [
                    ["--seconds", repr(args.seconds / passes), "--min-reps",
                     str(min_reps), "--trace", "1" if traced else "0"]]:
                setups[name]["calibs"].append(calibrate())
                raw = spawn_child(name, args, mode, extra)
                if raw is None:
                    print(f"perf/run.py: workload {name} could not run",
                          file=sys.stderr)
                    return None
                setups[name]["seconds"].append(raw["setup_s"])
            raws[name].append(raw)
    return {name: summarise(pool(raws[name]), setups[name], config)
            for name in names}


def pool(raws: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One raw result out of the turns' results: samples concatenated,
    peak RSS the largest, digests required to agree, the traced
    repetition the last turn's."""
    out = dict(raws[0], walls=[], calibs=[], phases={}, scoped={},
               failures=[],
               attempted=0, failed=0, traced=raws[-1].get("traced"))
    for raw in raws:
        out["walls"] += raw["walls"]
        out["calibs"] += raw["calibs"]
        for key in ("phases", "scoped"):
            for name, values in raw[key].items():
                out[key].setdefault(name, []).extend(values)
        out["attempted"] += raw["attempted"]
        out["failed"] += raw["failed"]
        out["failures"] += raw["failures"]
        if raw is not raws[0]:
            same = raw["digests"] == raws[0]["digests"]
            out["attempted"] += 1
            out["failed"] += not same
            if not same:
                out["failures"].append("digests differ from the first "
                                       "turn's")
    peaks = [raw["peak_rss_mb"] for raw in raws if "peak_rss_mb" in raw]
    if peaks:
        out["peak_rss_mb"] = max(peaks)
    return out


def summarise(raw: Dict[str, Any], setups: Dict[str, List[float]],
              config: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a workload's samples to named metrics with quartiles.

    ``wall_s`` and ``setup_s`` are in reference-box seconds: each
    repetition's wall time is scaled by ``calibration_ref_s`` over the
    calibration taken around it, the set-up times (a few seconds in all)
    by ``calibration_ref_s`` over the median calibration taken among
    them.  What the clock read is kept as ``wall_raw_s`` and
    ``setup_raw_s``.
    """
    ref = config["calibration_ref_s"]
    attempted = max(1, raw["attempted"])
    walls = [wall * ref / calib
             for wall, calib in zip(raw["walls"], raw["calibs"])]
    setup_scale = ref / statistics.median(setups["calibs"])
    end_to_end: Dict[str, Dict[str, float]] = {
        "setup_s": quartiles([s * setup_scale for s in setups["seconds"]]),
        "fail_frac": quartiles([raw["failed"] / attempted]),
    }
    layer: Dict[str, float] = {
        "setup_raw_s": statistics.median(setups["seconds"])}
    if walls:
        end_to_end["wall_s"] = quartiles(walls)
        layer["wall_raw_s"] = statistics.median(raw["walls"])
        layer["calib_ms"] = statistics.median(raw["calibs"]) * 1e3
    if "peak_rss_mb" in raw:
        end_to_end["peak_rss_mb"] = quartiles([raw["peak_rss_mb"]])
    for name, values in raw["scoped"].items():
        end_to_end[name] = quartiles(values)
    # Phases of the repetition nearest the median wall time, in the same
    # reference-box seconds: medians of each phase taken separately would
    # not add up to wall_s.
    phased_wall = None
    if walls:
        middle = min(range(len(walls)), key=lambda i: abs(
            walls[i] - end_to_end["wall_s"]["median"]))
        phased_wall = walls[middle]
        for name, values in raw["phases"].items():
            layer[f"phase.{name}_s"] = (values[middle] * ref
                                        / raw["calibs"][middle])
    if "first_rep_s" in raw:
        layer["phase.first_rep_s"] = raw["first_rep_s"]
    traced = raw.get("traced")
    if traced:
        for name, value in traced["self_s"].items():
            layer[f"{name}.self_s"] = value
        for name, value in traced["calls"].items():
            layer[f"{name}.calls"] = value
        layer.update(traced["counts"])
        layer["traced_wall_s"] = traced["wall_s"]
        if walls:
            layer["trace_overhead_frac"] = (
                traced["wall_s"] * ref / traced["calib"]
                / end_to_end["wall_s"]["median"] - 1.0)
        events = layer.get("kernel.events", 0)
        if events:
            layer["kernel.ns_per_event"] = (
                layer.get("kernel.self_s", 0.0) * 1e9 / events)
        scanned = layer.get("query.entries_scanned", 0)
        if scanned:
            layer["query.ns_per_entry"] = (
                layer.get("query.self_s", 0.0) * 1e9 / scanned)
    return {"workload": raw["workload"], "end_to_end": end_to_end,
            "per_layer": layer, "attempted": raw["attempted"],
            "failed": raw["failed"], "failures": raw["failures"],
            "digests": raw["digests"], "fs_type": raw.get("fs_type"),
            "phased_wall_s": phased_wall,
            "unresolved": traced["unresolved"] if traced else [],
            "traced": {k: traced[k] for k in
                       ("spans_kept", "spans_dropped", "targets")}
            if traced else None}


def print_summary(summary: Dict[str, Any], config: Dict[str, Any],
                  show_layers: bool) -> None:
    """Every metric by name with its unit."""
    name = summary["workload"]
    print(f"== {name} ==")
    e2e = summary["end_to_end"]
    for metric in config["end_to_end"]:
        stats = e2e.get(metric["name"])
        if stats is None or metric["on"] not in (None, name):
            continue
        note = ""
        if metric["name"] == "dedupe_p50_ms":
            note = f"  [tmp on {summary['fs_type']}]"
        print(f"  {metric['name']:<22} {stats['median']:>14.6g} "
              f"{metric['unit']:<8} q1={stats['q1']:.6g} "
              f"q3={stats['q3']:.6g} n={stats['n']}{note}")
    if show_layers:
        wall = summary["per_layer"].get("traced_wall_s")
        for metric in declared_metrics(config)[1]:
            value = summary["per_layer"].get(metric["name"])
            if value is None:
                continue
            share = ""
            if wall and metric["name"].endswith(".self_s"):
                share = f"  {100.0 * value / wall:5.1f} % of traced wall"
            print(f"  {metric['name']:<26} {value:>14.6g} "
                  f"{metric['unit']:<6}{share}")
        if summary["traced"]:
            t = summary["traced"]
            print(f"  spans: {t['spans_kept']} kept, "
                  f"{t['spans_dropped']} dropped, {t['targets']} targets "
                  f"-> perf/out/{name}.spans.jsonl")
    if summary["unresolved"]:
        print(f"  unresolved: {', '.join(summary['unresolved'])}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")


def check_invariants(summary: Dict[str, Any]) -> List[str]:
    """Accounting identities of one summary (reported, and gated by the
    self-tests): layer self times sum to the traced wall within 1 %,
    phases to the wall time of the repetition they were taken from
    within 2 %."""
    problems = []
    layer = summary["per_layer"]
    wall = layer.get("traced_wall_s")
    if wall:
        total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        if abs(total - wall) > 0.01 * wall:
            problems.append(f"self times sum to {total:.4f}s, traced wall "
                            f"is {wall:.4f}s")
    rep_wall = summary["phased_wall_s"]
    if rep_wall:
        phases = sum(v for k, v in layer.items()
                     if k.startswith("phase.") and k != "phase.first_rep_s")
        if abs(phases - rep_wall) > 0.02 * rep_wall:
            problems.append(f"phases sum to {phases:.4f}s, their "
                            f"repetition took {rep_wall:.4f}s")
    return problems


def final_line(summary: Dict[str, Any], config: Dict[str, Any],
               trace: int) -> str:
    """The driver's contract: one JSON object holding every declared
    metric — the ``end_to_end`` list without tracing, the ``per_layer``
    list with it.

    The contract has no way to leave a metric out, so one without a
    value here reads 0 in this line and in this line only: a phase or a
    layer this workload never enters (a true zero), a ratio whose base is
    zero, a count whose targets are gone (named under ``unresolved`` in
    the summary above and in the run record, which leave such metrics
    out).
    """
    end_to_end, per_layer = declared_metrics(config)
    metrics = {}
    for metric in per_layer if trace else end_to_end:
        name = metric["name"]
        value = summary["end_to_end"].get(name, {}).get(
            "median", summary["per_layer"].get(name, 0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": summary["failed"] == 0,
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def environment() -> Dict[str, Any]:
    """Noise context, stated rather than hidden."""
    def git(*argv):
        try:
            return subprocess.run(["git", *argv], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True
                                  ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    commit = git("rev-parse", "--short", "HEAD")
    # Uncommitted changes to what is measured or to the benchmark: the
    # commit named is then the parent of what ran, not what ran.
    dirty = bool(git("status", "--porcelain", "--", "src", "perf",
                     "BENCHMARK.json"))
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"warning: 1-min loadavg {load:.2f} > nproc {nproc}; "
              f"timings will be noisy", file=sys.stderr)
    return {"ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "commit": commit or None, "dirty": dirty,
            "python": sys.version.split()[0], "nproc": nproc,
            "loadavg1": load}


def repin(args: argparse.Namespace, config: Dict[str, Any]) -> int:
    """Regenerate expected.json — the only writer of that file."""
    args.seed = config["default_seed"]
    pinned: Dict[str, Any] = {"seed": args.seed}
    if os.path.exists(EXPECTED):
        os.unlink(EXPECTED)
    for mode in ("default", "check"):
        pinned[mode] = {}
        for workload in config["sizes"][mode]:
            raw = spawn_child(workload, args, mode,
                              ["--seconds", "0", "--min-reps", "1",
                               "--trace", "0"])
            if raw is None or raw["failed"]:
                print(f"repin: {workload} ({mode}) did not run clean: "
                      f"{raw and raw['failures']}", file=sys.stderr)
                return 1
            pinned[mode][workload] = raw["digests"]
            print(f"pinned {mode}/{workload}: {len(raw['digests'])} digests")
    with open(EXPECTED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input-generator seed (default: the pinned "
                             "seed in config.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics; default: both")
    parser.add_argument("--check", action="store_true",
                        help="tiny sizes, every correctness check, no "
                             "timing assertions")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate perf/expected.json")
    parser.add_argument("--out", default=None,
                        help="also append this run's record to a JSONL "
                             "file (input of perf/compare.py)")
    parser.add_argument("--expected", default=EXPECTED,
                        help="pinned-digest file to check against "
                             "(default: perf/expected.json)")
    # Internal: the per-workload subprocess.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="default", help=argparse.SUPPRESS)
    parser.add_argument("--min-reps", type=int, default=3,
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    config = load_config()
    if args.repin:
        return repin(args, config)
    if args.seed is None:
        args.seed = config["default_seed"]
    mode = "check" if args.check else "default"
    if args.seconds is None:
        args.seconds = 0.0 if args.check else float(load_json(
            os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"])
    names = list(config["sizes"][mode])
    if args.workload is not None:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; one of "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        names = [args.workload]
    record = environment()
    record.update(seed=args.seed, mode=mode, seconds=args.seconds,
                  workloads={})
    summaries = measure(names, args, config, mode)
    if summaries is None:
        return 2
    for name, summary in summaries.items():
        print_summary(summary, config, args.trace != 0)
        if mode == "default":       # tiny --check sizes time the harness
            for problem in check_invariants(summary):
                print(f"  note: {problem}")
        record["workloads"][name] = {
            k: summary[k] for k in ("end_to_end", "per_layer", "fs_type",
                                    "unresolved")}
    full = args.workload is None and mode == "default"
    for path in ([HISTORY] if full else []) + (
            [args.out] if args.out else []):
        with open(path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        print(final_line(summaries[names[0]], config, args.trace or 0))
    else:
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
