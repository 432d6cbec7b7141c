"""EFILTER-style trace queries and time-travel over replayable runs.

The package splits into two halves that share one surface:

* **Query engines** (:mod:`repro.query.engines`) — ``filter``,
  ``aggregate``, and ``timeline`` over the JSONL traces every run
  emits, driven by a small hand-rolled expression language
  (:mod:`repro.query.lexer` / :mod:`repro.query.parser` /
  :mod:`repro.query.expr`).  The obs report's fixed views are canned
  queries through the same engines.
* **Time travel** (:mod:`repro.query.replay`) — because runs replay
  byte-identically from a runspec (workload + seed + form), a finished
  run can be "un-executed" by re-executing forward: ``bisect`` finds
  the first event where two runs diverge, ``at`` stops a replay at a
  virtual time or event count and dumps the reconstructed cluster
  state as canonical JSON.

``python -m repro.query`` exposes all five
verbs with migralint's 0/1/2 exit convention.
"""

from __future__ import annotations

from repro.errors import QueryError, QuerySyntaxError
from repro.query.engines import (aggregate_entries, canonical_json,
                                 compile_predicate, filter_entries,
                                 is_number, timeline_entries,
                                 trace_makespan, window_index)
from repro.query.expr import Binary, Call, Expr, Field, Literal, Unary
from repro.query.parser import AggregateSpec, parse, parse_aggregate
from repro.query.replay import (first_divergence, parse_runspec,
                                parse_timespec, replay_at, run_recorded)

__all__ = [
    "QueryError",
    "QuerySyntaxError",
    "parse",
    "parse_aggregate",
    "AggregateSpec",
    "Expr",
    "Literal",
    "Field",
    "Unary",
    "Binary",
    "Call",
    "compile_predicate",
    "filter_entries",
    "aggregate_entries",
    "timeline_entries",
    "window_index",
    "trace_makespan",
    "is_number",
    "canonical_json",
    "parse_runspec",
    "parse_timespec",
    "run_recorded",
    "first_divergence",
    "replay_at",
]
