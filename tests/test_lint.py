"""The migralint self-gate: the shipped tree must be migration-safe.

Runs the full analyzer over ``src/``, ``examples/``, and
``src/repro/workloads/`` and fails on any unsuppressed finding — making
the paper's migratability disciplines (PUP completeness, swap-global
privatization, no host state across yields, SDAG yield discipline,
isomalloc address hygiene) a permanent tier-1 gate for every PR.
"""

import os

import pytest

from repro.analysis import ModuleContext, analyze_paths
from repro.analysis.core import collect_files

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
GATE_PATHS = [
    os.path.join(ROOT, "src"),
    os.path.join(ROOT, "examples"),
    os.path.join(ROOT, "src", "repro", "workloads"),
]


@pytest.fixture(scope="module")
def findings():
    """One analyzer pass over the gate, shared by every test here."""
    return analyze_paths(GATE_PATHS)


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
            # ... and the parallel sweep executor
            "spec.py", "pool.py", "cache.py", "executor.py", "progress.py",
            "runners.py",
            # ... and the observability layer
            "metrics.py", "collect.py", "report.py",
            # ... and the flows workload/compiler layer (FLW002's
            # contract surface: every body here must stay COMPILABLE)
            "compile.py", "compiled.py", "programs.py", "runtime.py",
            "hybrid.py", "scale.py",
            # ... and the sweep service (host-side, but its protocol /
            # journal / service modules are programs like any other)
            "service.py", "journal.py", "protocol.py", "client.py",
            # ... and the trace-query engine (one trace-reading surface:
            # the obs report is rebased on these engines)
            "lexer.py", "expr.py", "parser.py", "engines.py",
            "replay.py"} <= names


def test_shipped_tree_is_lint_clean(findings):
    active = [f for f in findings if not f.suppressed]
    assert not active, "migralint gate failed:\n" + "\n".join(
        f.render() for f in active)


#: Every suppressed finding in the gate, as ``path:line RULE``, each
#: justified at its site (the SDAG stencil example harvests its strips
#: into a host-side dict for the sequential check, after any migration).
SUPPRESSED = {"examples/stencil_sdag.py:78 MIG002"}


def test_suppressions_stay_rare(findings):
    """An escape hatch, not a lifestyle: the set is exact, so adding or
    retiring one is a reviewed edit here."""
    found = {f"{os.path.relpath(f.path, ROOT)}:{f.line} {f.rule}"
             for f in findings if f.suppressed}
    assert found == SUPPRESSED


def test_every_suppression_suppresses_something(findings):
    """A suppression comment that covers no finding is dead weight that
    would silently mask a future one."""
    covered = {(f.path, f.line) for f in findings if f.suppressed}
    dead = []
    for path in collect_files(GATE_PATHS):
        with open(path, encoding="utf-8") as fh:
            targets = ModuleContext.from_source(fh.read(), path).suppressions
        dead += [f"{os.path.relpath(path, ROOT)}:{line}"
                 for line in sorted(targets) if (path, line) not in covered]
    assert dead == []


def test_flow_rules_are_in_the_gate():
    """The interprocedural rules must stay registered — a silently
    dropped import would shrink the gate without failing it."""
    from repro.analysis import all_rules
    ids = {r.id for r in all_rules()}
    assert {"FLW001", "FLW002", "FLW003"} <= ids
