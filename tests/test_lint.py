"""The migralint self-gate: the shipped tree must be migration-safe.

Runs the full analyzer over ``src/``, ``examples/``, and
``src/repro/workloads/`` and fails on any unsuppressed finding — making
the paper's migratability disciplines (PUP completeness, swap-global
privatization, no host state across yields, SDAG yield discipline,
isomalloc address hygiene) a permanent tier-1 gate for every PR.
"""

import os

from repro.analysis import analyze_paths
from repro.analysis.core import collect_files

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
GATE_PATHS = [
    os.path.join(ROOT, "src"),
    os.path.join(ROOT, "examples"),
    os.path.join(ROOT, "src", "repro", "workloads"),
]


def test_gate_covers_the_whole_tree():
    """Guard against path rot silently shrinking the gate."""
    files = collect_files(GATE_PATHS)
    assert len(files) > 60, files
    names = {os.path.basename(f) for f in files}
    assert {"pup.py", "swapglobal.py", "sdag.py", "stencil.py",
            "quickstart.py", "faults.py", "injector.py", "invariants.py",
            "harness.py", "runner.py",
            # the event kernel must stay inside the gate too
            "event.py", "pqueue.py", "hooks.py", "policy.py", "trace.py",
            "quiescence.py",
            # ... and the parallel sweep executor (EXC001's home turf)
            "spec.py", "pool.py", "cache.py", "executor.py", "progress.py",
            "runners.py",
            # ... and the observability layer (OBS001's home turf)
            "metrics.py", "collect.py", "report.py",
            # ... and the flows workload/compiler layer (FLW002's
            # contract surface: every body here must stay COMPILABLE)
            "compile.py", "compiled.py", "programs.py", "runtime.py",
            "hybrid.py", "scale.py",
            # ... and the sweep service (host-side, but its protocol /
            # journal / service modules still obey the worker-purity and
            # structure rules)
            "service.py", "journal.py", "protocol.py", "client.py",
            # ... and the trace-query engine (one trace-reading surface:
            # the obs report is rebased on these engines)
            "lexer.py", "expr.py", "parser.py", "engines.py",
            "replay.py"} <= names


def test_shipped_tree_is_lint_clean():
    findings = analyze_paths(GATE_PATHS)
    active = [f for f in findings if not f.suppressed]
    assert not active, "migralint gate failed:\n" + "\n".join(
        f.render() for f in active)


def test_no_heapq_outside_kernel():
    """The acceptance grep, as a test: ``git grep heapq -- src/repro``
    must only hit ``src/repro/kernel/`` (MinHeap is the one sanctioned
    heap; KRN001 enforces the AST-level version of this)."""
    src_repro = os.path.join(ROOT, "src", "repro")
    offenders = []
    for path in collect_files([src_repro]):
        rel = os.path.relpath(path, src_repro).replace(os.sep, "/")
        # Mirror the grep filter: the kernel package plus the lint rule
        # that polices it (krn001_kernel_bypass) are the only mentions.
        if "kernel" in rel:
            continue
        with open(path, encoding="utf-8") as fh:
            if "heapq" in fh.read():
                offenders.append(rel)
    assert not offenders, offenders


def test_suppressions_stay_rare():
    """Suppressions are an escape hatch, not a lifestyle: keep them few
    and force a conscious bump here when one is added.

    Current budget, exact: 3 historical (MIG002 in
    ``examples/stencil_sdag.py``, OBS001 on the PUP and platform
    registries) + 7 DET001 in ``repro.exec`` (2 sweep wall-clock timings
    in ``executor.py``, 3 per-cell durations and 2 worker-shutdown grace
    reads in ``pool.py``) — each carries a justification comment at the
    site.
    """
    findings = analyze_paths(GATE_PATHS)
    suppressed = [f for f in findings if f.suppressed]
    assert len(suppressed) <= 10, "\n".join(f.render() for f in suppressed)


def test_flow_rules_are_in_the_gate():
    """The interprocedural rules must stay registered — a silently
    dropped import would shrink the gate without failing it."""
    from repro.analysis import all_rules
    ids = {r.id for r in all_rules()}
    assert {"FLW001", "FLW002", "FLW003", "DET001"} <= ids
