"""migralint: static migration-safety analysis for repro programs.

The paper's central contract is that a flow of control is *migratable*
only if user code follows three disciplines: every byte of state travels
through the PUP framework (Section 3.1), global variables are privatized
through the swap-global GOT mechanism (Section 3.1.1), and all pointers
live at isomalloc addresses that stay valid across processors (Section
3.4.2).  Nothing in the runtime can enforce those disciplines at
migration time — a forgotten ``pup()`` field or a raw module-level global
in a thread body fails silently.  This package makes the contract
machine-checkable: an AST-based analyzer with a pluggable rule framework,
per-rule severities, inline ``# migralint: disable=RULE`` suppressions,
and human/JSON reporters.

Run it as ``python -m repro.analysis <paths>`` or via the ``migralint``
console script; ``tests/test_lint.py`` runs it over the whole shipped
tree as a permanent gate.

The ``repro.analysis.flow`` subpackage adds the interprocedural layer:
per-function suspend-point scans, a module-set call graph
with fixed-point suspends inference, and the compilability report
(``python -m repro.analysis flowreport``) that classifies every thread
body as COMPILABLE / NEEDS-REWRITE / OPAQUE for the thread→event
compilation path (paper §2, ROADMAP item 2).

Shipped rules
-------------
========  ==============================================================
MIG001    pup-completeness: ``__init__`` fields vs. ``pup()`` traversal
MIG002    unprivatized-global: raw module globals in migratable bodies
MIG003    non-migratable-state: locks/files/sockets held across yields
MIG004    sdag-discipline: SDAG methods yield only When/Overlap/Atomic
MIG005    isomalloc-escape: simulated addresses leaking into host state
KRN001    kernel-bypass: heap queues/run loops outside the event kernel
EXC001    worker-purity: sweep workers ship cells as plain data
OBS001    module-state: no mutable module-scope state in runtime pkgs
FLW001    lost-delegation: suspending call without ``yield from``
FLW002    unsplittable: suspend under with/try/except/match, bare
          yield, or closure capture mutated across a suspend
FLW003    dead-suspend-surface: unreferenced private suspending helper
DET001    wall-clock-in-sim: wall clock / unseeded RNG in runtime pkgs
========  ==============================================================
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
)
from repro.analysis.reporters import render_human, render_json

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "render_human",
    "render_json",
]
