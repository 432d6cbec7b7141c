"""``python -m repro.query`` — trace queries and time travel.

Subcommands (exit codes follow migralint's convention — 0 success,
1 "found something" where the verb has a found/not-found meaning,
2 usage or input error):

``filter <trace> <expr> [--json] [--limit N] [--count]``
    Stream trace entries matching a predicate.  Exit 0 when at least
    one entry matched, 1 when none did.

``aggregate <trace> <spec> [--json]``
    Fold the trace through ``count()/sum()/min()/max()/avg()`` cells,
    optionally ``by`` group fields; rows come out in sorted-key order.

``timeline <trace> [--windows N] [--value EXPR] [--where EXPR] [--json]``
    Windowed series over the makespan using the obs attribution rule
    (entry charged to the window containing its event time, clamped).

``report <trace> [--json] [--windows N]``
    The Projections-style report (:func:`repro.obs.report.build_report`):
    per-PE utilization, a load-imbalance timeline, the migration table
    and message histograms.  An empty trace is exit 2.

``bisect <runspec-a> <runspec-b> [--json]``
    Re-execute both runs under a recording tracer and report the first
    event at which the traces diverge.  Exit 0 when the traces are
    identical, 1 when they diverge.

``at <runspec> <time> [--json]``
    Replay a run to a virtual timestamp (``250000``) or event count
    (``@120``) and dump the reconstructed cluster state as canonical
    JSON.

Runspecs name replayable runs: ``chaos:stencil:seed=3`` or
``flows:ring:form=compiled:ranks=4:rounds=3`` (see
:func:`repro.query.replay.parse_runspec`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

from repro.errors import QuerySyntaxError, ReproError
from repro.kernel.trace import load_trace
from repro.obs.report import build_report, render_report
from repro.query.engines import (aggregate_entries, canonical_json,
                                 compile_predicate, timeline_entries)
from repro.query.replay import (first_divergence, parse_runspec,
                                parse_timespec, replay_at, run_recorded)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_syntax(e: QuerySyntaxError) -> int:
    print(f"error: {e.caret()}" if e.text else f"error: {e}",
          file=sys.stderr)
    return 2


def _emit(obj: Any, as_json: bool, render) -> None:
    if as_json:
        print(canonical_json(obj))
    else:
        print(render(obj))


# -- renderers --------------------------------------------------------------


def _render_aggregate(result: Dict[str, Any]) -> str:
    lines = [f"== {result['entries']} entries"]
    for row in result["rows"]:
        group = ", ".join(f"{k}={json.dumps(v)}"
                          for k, v in row["group"].items())
        cells = "  ".join(f"{k}={json.dumps(v)}"
                          for k, v in row["aggregates"].items())
        lines.append(f"  {group + ':  ' if group else ''}{cells}")
    return "\n".join(lines)


def _render_timeline(result: Dict[str, Any]) -> str:
    lines = [f"== makespan {result['makespan_ns']:.0f}ns, "
             f"{len(result['windows'])} windows"]
    peak = max((w["count"] for w in result["windows"]), default=0)
    for w in result["windows"]:
        bar = "#" * (round(w["count"] * 30 / peak) if peak else 0)
        cell = f"  sum={w['sum']:g}" if "sum" in w else ""
        lines.append(f"  [{w['t0']:>12.0f} .. {w['t1']:>12.0f}]  "
                     f"{w['count']:>6}{cell}  {bar}")
    return "\n".join(lines)


def _render_divergence(d: Dict[str, Any]) -> str:
    a, b = d["a"], d["b"]
    lines = [f"first divergence at event index {d['index']}"]
    for label, rec in (("a", a), ("b", b)):
        if rec is None:
            lines.append(f"  {label}: <trace ended>")
        else:
            head = ", ".join(f"{k}={json.dumps(rec[k])}"
                             for k in ("seq", "ev", "category", "site")
                             if k in rec)
            lines.append(f"  {label}: {head}")
            lines.append(f"     {canonical_json(rec)}")
    return "\n".join(lines)


# -- verbs ------------------------------------------------------------------


def _cmd_filter(args) -> int:
    pred = compile_predicate(args.expr)
    entries = load_trace(args.trace)
    matched = 0
    for e in entries:
        if not pred(e):
            continue
        matched += 1
        if not args.count and (args.limit is None or matched <= args.limit):
            print(canonical_json(e) if args.json
                  else json.dumps(e, sort_keys=True))
    if args.count:
        print(matched)
    elif args.limit is not None and matched > args.limit:
        print(f"... {matched - args.limit} more "
              f"({matched} total)", file=sys.stderr)
    return 0 if matched else 1


def _cmd_aggregate(args) -> int:
    result = aggregate_entries(load_trace(args.trace), args.spec)
    _emit(result, args.json, _render_aggregate)
    return 0


def _cmd_timeline(args) -> int:
    result = timeline_entries(load_trace(args.trace),
                              windows=args.windows,
                              value=args.value, where=args.where)
    _emit(result, args.json, _render_timeline)
    return 0


def _cmd_report(args) -> int:
    entries = load_trace(args.trace)
    if not entries:
        return _fail(f"{args.trace}: empty trace (no entries to analyze)")
    _emit(build_report(entries, windows=args.windows), args.json,
          render_report)
    return 0


def _cmd_bisect(args) -> int:
    spec_a = parse_runspec(args.runspec_a)
    spec_b = parse_runspec(args.runspec_b)
    trace_a = run_recorded(spec_a)
    trace_b = run_recorded(spec_b)
    d = first_divergence(trace_a, trace_b)
    if d is None:
        result = {"diverged": False, "events": len(trace_a),
                  "a": spec_a.canonical(), "b": spec_b.canonical()}
        _emit(result, args.json,
              lambda r: f"traces identical ({r['events']} events)")
        return 0
    result = {"diverged": True, "a_spec": spec_a.canonical(),
              "b_spec": spec_b.canonical(), **d}
    _emit(result, args.json, _render_divergence)
    return 1


def _cmd_at(args) -> int:
    spec = parse_runspec(args.runspec)
    state = replay_at(spec, parse_timespec(args.time))
    # Canonical JSON either way: the state dump *is* the product, and
    # its byte-stability across invocations is part of the contract.
    print(canonical_json(state))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.query",
        description="Trace queries and time travel over replayable runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="stream entries matching a predicate")
    p.add_argument("trace")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true",
                   help="canonical JSON per entry (no whitespace)")
    p.add_argument("--limit", type=int, default=None,
                   help="print at most N matching entries")
    p.add_argument("--count", action="store_true",
                   help="print only the match count")
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("aggregate",
                       help="count/sum/min/max/avg with group by")
    p.add_argument("trace")
    p.add_argument("spec", help="e.g. \"count(), sum(bytes) by category\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_aggregate)

    p = sub.add_parser("timeline", help="windowed series over the makespan")
    p.add_argument("trace")
    p.add_argument("--windows", type=int, default=8)
    p.add_argument("--value", default=None,
                   help="expression summed per window")
    p.add_argument("--where", default=None,
                   help="predicate restricting counted entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("report", help="utilization, imbalance, migrations "
                                      "and message histograms")
    p.add_argument("trace")
    p.add_argument("--windows", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("bisect",
                       help="first divergence between two replayed runs")
    p.add_argument("runspec_a", metavar="runspec-a")
    p.add_argument("runspec_b", metavar="runspec-b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_bisect)

    p = sub.add_parser("at",
                       help="replay to a point and dump cluster state")
    p.add_argument("runspec")
    p.add_argument("time", help="virtual ns (250000) or @N events (@120)")
    p.set_defaults(fn=_cmd_at)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QuerySyntaxError as e:
        return _fail_syntax(e)
    except BrokenPipeError:
        # Downstream (``| head``) closed the pipe: not an error, but
        # Python would print a traceback at exit unless the dangling
        # stdout is abandoned first.  Caught before OSError, its base.
        sys.stdout = None
        return 0
    except (OSError, ReproError) as e:
        return _fail(str(e))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
