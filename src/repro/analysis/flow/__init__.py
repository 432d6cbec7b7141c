"""Flow analysis: suspend-point scans, interprocedural suspends inference,
and the thread→event compilability report.

ROADMAP item 2 wants Cth thread workloads mechanically compiled to
event-driven continuations (the CPC transformation, see PAPERS.md).  A
compiler needs a static front end that decides *which* thread bodies are
compilable and *why* the rest are not:

* :mod:`repro.analysis.flow.suspends` — where one ``def`` suspends
  (``yield "yield"`` / ``yield "suspend"`` / ``yield from`` per the
  :class:`repro.core.thread.UThread` body protocol) and inside which
  protected regions, plus the one definition of an unsplittable
  construct that the lint, the classifier and the compiler share;
* :mod:`repro.analysis.flow.callgraph` — a module-set call graph with a
  fixed-point *suspends* inference (the CPC "cps" attribute): a function
  suspends if it yields a scheduler directive or ``yield from``-delegates
  to a suspending callee, and an unknown callee is soundly assumed
  suspending;
* :mod:`repro.analysis.flow.compilability` — classifies every thread
  body as COMPILABLE / NEEDS-REWRITE / OPAQUE, each NEEDS-REWRITE
  carrying the precise blocker and source location;
* :mod:`repro.analysis.flow.report` — the ``flowreport`` CLI and the
  byte-stable JSON document checked in at ``results/flow_report.json``.

The lint rules FLW001-FLW003 (see :mod:`repro.analysis.rules`) are the
per-module faces of the same machinery.
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import (
    CallGraph,
    FuncInfo,
    runtime_interface,
)
from repro.analysis.flow.compilability import (
    COMPILABLE,
    NEEDS_REWRITE,
    OPAQUE,
    Blocker,
    BodyReport,
    classify_bodies,
)
from repro.analysis.flow.report import (
    build_flow_report,
    render_flow_human,
    render_flow_json,
)
from repro.analysis.flow.suspends import (
    CapturedMutation,
    SuspendPoint,
    captured_mutations,
    classify_yield,
    suspend_points,
    unsplittable,
)

__all__ = [
    "Blocker",
    "BodyReport",
    "COMPILABLE",
    "CallGraph",
    "CapturedMutation",
    "FuncInfo",
    "NEEDS_REWRITE",
    "OPAQUE",
    "SuspendPoint",
    "build_flow_report",
    "captured_mutations",
    "classify_bodies",
    "classify_yield",
    "render_flow_human",
    "render_flow_json",
    "runtime_interface",
    "suspend_points",
    "unsplittable",
]
