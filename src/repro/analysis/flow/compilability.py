"""Classify thread bodies for the thread→event compilation (ROADMAP 2).

A body is the unit the future compiler transforms: a generator function
whose first parameter is ``th``/``thread``/``mpi``, driven by the
scheduler through the UThread directive protocol.  For each body found
under the scan roots this module computes the delegation closure (every
function its directive stream can flow through), then classifies:

* **COMPILABLE** — every suspend point in the closure sits in
  splittable straight-line/loop/branch code and every delegation
  resolves to a known callee or a runtime interface primitive;
* **NEEDS-REWRITE** — at least one :class:`Blocker`: a suspend inside
  ``with``, any part of a ``try`` statement or ``match``, a bare yield
  of a non-directive value, a closure capture rebound across a suspend
  point (all three from :func:`~.suspends.unsplittable`, the definition
  the lint and the compiler share), or recursion through a suspending
  cycle.  Each
  blocker carries the construct kind, the rule id (FLW002), and the
  exact source location — the rewrite worklist for the human;
* **OPAQUE** — no blocker found, but some delegation target could not
  be resolved, so the suspend surface is soundly unknown (the CPC
  "unknown callee ⇒ assume cps" case).

The runtime interface methods (``mpi.recv`` and friends) are treated as
atomic suspension primitives, exactly as CPC treats its cps runtime:
the compiler will emit an event op for the whole call, so their
*implementations* are not part of any body's closure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.astutil import THREAD_PARAM_NAMES
from repro.analysis.flow.callgraph import CallGraph, FuncInfo
from repro.analysis.flow.suspends import suspend_points, unsplittable

__all__ = [
    "Blocker",
    "BodyReport",
    "COMPILABLE",
    "NEEDS_REWRITE",
    "OPAQUE",
    "SCAN_ROOTS",
    "classify_bodies",
    "thread_bodies",
]

COMPILABLE = "COMPILABLE"
NEEDS_REWRITE = "NEEDS-REWRITE"
OPAQUE = "OPAQUE"

#: Repo-relative roots whose thread bodies the report must classify.
SCAN_ROOTS = (
    "examples",
    "src/repro/chaos/workloads.py",
    "src/repro/flows",
    "src/repro/workloads",
)


@dataclass(frozen=True)
class Blocker:
    """One construct that stops a body from being compiled."""

    #: "suspend-in-with" | "suspend-in-try" | "suspend-in-finally"
    #: | "suspend-under-except" | "suspend-in-match" | "bare-yield"
    #: | "closure-across-suspend" | "suspending-recursion"
    kind: str
    rule: str
    path: str
    line: int
    func: str
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rule": self.rule, "path": self.path,
                "line": self.line, "func": self.func, "detail": self.detail}


@dataclass
class BodyReport:
    """Classification of one thread body plus the evidence."""

    path: str
    qualname: str
    line: int
    classification: str
    #: The body's own suspend point counts (directive / delegation).
    directives: int
    delegations: int
    #: Every function the body's directive stream flows through
    #: ("path::qualname", sorted; includes the body itself).
    closure: List[str]
    blockers: List[Blocker] = field(default_factory=list)
    #: Unresolved delegations: "path:line: target" strings.
    opaque: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "qualname": self.qualname,
            "line": self.line,
            "classification": self.classification,
            "directives": self.directives,
            "delegations": self.delegations,
            "closure": list(self.closure),
            "blockers": [b.to_dict() for b in self.blockers],
            "opaque": list(self.opaque),
        }


def thread_bodies(graph: CallGraph) -> List[FuncInfo]:
    """Generator functions whose first parameter is a thread handle."""
    out = []
    for f in graph.funcs.values():
        args = f.node.args
        params = args.posonlyargs + args.args
        if params and params[0].arg in THREAD_PARAM_NAMES \
                and f.is_generator:
            out.append(f)
    return sorted(out, key=lambda f: (f.path, f.line, f.qualname))


def _closure_of(graph: CallGraph, body: FuncInfo) \
        -> Tuple[List[FuncInfo], List[str]]:
    """BFS over resolved delegation edges; returns (members, opaque)."""
    seen = {body.key}
    order = [body]
    opaque: List[str] = []
    cursor = 0
    while cursor < len(order):
        f = order[cursor]
        cursor += 1
        for y, res in f.resolved:
            if res.kind == "func":
                if res.key not in seen:
                    seen.add(res.key)
                    order.append(graph.funcs[res.key])
            elif res.kind == "unknown":
                opaque.append(f"{f.path}:{y.lineno}: yield from "
                              f"{res.label}")
    return order, sorted(set(opaque))


class _Classifier:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._cycle_members: Dict[str, Tuple[str, ...]] = {}
        for cycle in graph.suspending_cycles():
            for key in cycle:
                self._cycle_members.setdefault(key, cycle)

    def _delegation_suspends(self, f: FuncInfo, line: int,
                             col: int) -> bool:
        for y, res in f.resolved:
            if y.lineno == line and y.col_offset == col:
                sound, _known = self.graph.resolution_suspends(res)
                return sound
        return True  # unmatched: assume the worst

    def blockers_in(self, f: FuncInfo) -> List[Blocker]:
        # A delegation that provably never suspends needs no cut, so it
        # may sit inside a protected region.
        points = [sp for sp in suspend_points(f.node)
                  if not (sp.protected and sp.kind == "delegate"
                          and not self._delegation_suspends(
                              f, sp.line, sp.col))]
        out = [Blocker(kind=kind, rule="FLW002", path=f.path, line=line,
                       func=f.qualname, detail=detail)
               for kind, line, detail in unsplittable(f.node, points)]
        cycle = self._cycle_members.get(f.key)
        if cycle is not None:
            names = ", ".join(k.split("::", 1)[1] for k in cycle)
            out.append(Blocker(
                kind="suspending-recursion", rule="FLW002", path=f.path,
                line=f.line, func=f.qualname,
                detail=(f"{f.qualname} recurses through a suspending "
                        f"cycle ({names}); continuations cannot be "
                        f"statically enumerated")))
        return out

    def classify(self, body: FuncInfo) -> BodyReport:
        members, opaque = _closure_of(self.graph, body)
        blockers: List[Blocker] = []
        for f in members:
            blockers.extend(self.blockers_in(f))
        blockers.sort(key=lambda b: (b.path, b.line, b.kind))
        if blockers:
            verdict = NEEDS_REWRITE
        elif opaque:
            verdict = OPAQUE
        else:
            verdict = COMPILABLE
        kinds = [sp.kind for sp in suspend_points(body.node)]
        return BodyReport(
            path=body.path,
            qualname=body.qualname,
            line=body.line,
            classification=verdict,
            directives=kinds.count("directive"),
            delegations=kinds.count("delegate"),
            closure=sorted(f.key for f in members),
            blockers=blockers,
            opaque=opaque,
        )


def classify_bodies(root: str,
                    roots: Tuple[str, ...] = SCAN_ROOTS,
                    interface: Optional[Dict[str, Dict[str, bool]]] = None,
                    ) -> List[BodyReport]:
    """Classify every thread body under ``root``'s scan roots.

    Findings suppressed in source are *not* filtered here: the report is
    a contract about what the compiler will face, not a lint gate.
    """
    paths = [os.path.join(root, r) for r in roots]
    graph = CallGraph.from_paths(
        [p for p in paths if os.path.exists(p)],
        relative_to=root, interface=interface)
    classifier = _Classifier(graph)
    return [classifier.classify(body) for body in thread_bodies(graph)]
