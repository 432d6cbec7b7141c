"""Suspend points of one function body, and what makes them unsplittable.

A thread body in this codebase is a Python generator driven by the
scheduler (:meth:`repro.core.thread.UThread.step`): ``yield "yield"``
and ``yield "suspend"`` are scheduler directives, ``yield ("io", ns)``
charges simulated time, and ``yield from helper(...)`` delegates the
whole directive stream to a suspending callee.  The CPC transformation
(PAPERS.md) splits a function at exactly these points, so
:func:`suspend_points` records every yield of one ``def`` in order as a
:class:`SuspendPoint` annotated with the *protected regions* (``with``,
``try``, ``except`` handlers, ``match``) that enclose it — the
constructs a splitting compiler cannot cut through.

There is no graph here: the compiler lowers loops and branches from the
AST itself, so the only questions anyone asks of this module are "where
does this body suspend, and inside what?" (:func:`suspend_points`) and
"which of that defeats the split?" (:func:`unsplittable`, the one
definition the FLW002 lint, the ``flowreport`` classifier and
``compile_flow``'s preflight all consult).  Nested ``def``/``lambda``
scopes are *not* descended into: they are separate functions.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.astutil import call_name, local_names, walk_shallow

__all__ = [
    "CapturedMutation",
    "SuspendPoint",
    "captured_mutations",
    "classify_yield",
    "suspend_points",
    "unsplittable",
]

#: The scheduler directive strings a body may yield directly
#: (see ``repro.core.scheduler.CthScheduler._handle``).
DIRECTIVE_STRINGS = ("yield", "suspend", "exit")

#: Tuple directives: ``("io", ns)`` charges simulated nanoseconds.
DIRECTIVE_TUPLE_TAGS = ("io",)


def classify_yield(node: ast.expr) -> Tuple[str, Optional[str]]:
    """Classify a ``Yield``/``YieldFrom`` node for the UThread protocol.

    Returns ``(kind, directive)`` where *kind* is one of:

    * ``"delegate"`` — ``yield from``: the suspend behaviour is the
      callee's (interprocedural; see :mod:`.callgraph`);
    * ``"directive"`` — a recognised scheduler directive (``"yield"``,
      ``"suspend"``, ``"exit"``, or an ``("io", ns)`` tuple), with
      *directive* naming which one;
    * ``"bare"`` — any other yielded value.  The scheduler raises
      ``SchedulerError`` on an unknown directive, so a bare yield in a
      thread body is a protocol bug and an unconditional compilation
      blocker.
    """
    if isinstance(node, ast.YieldFrom):
        return "delegate", None
    value = node.value
    if value is None:
        return "bare", None
    if isinstance(value, ast.Constant) and value.value in DIRECTIVE_STRINGS:
        return "directive", value.value
    if (isinstance(value, ast.Tuple) and value.elts
            and isinstance(value.elts[0], ast.Constant)
            and value.elts[0].value in DIRECTIVE_TUPLE_TAGS):
        return "directive", value.elts[0].value
    return "bare", None


@dataclass
class SuspendPoint:
    """One yield in a function body, i.e. one place the compiler cuts."""

    line: int
    col: int
    #: ``"directive"`` | ``"delegate"`` | ``"bare"`` (see classify_yield).
    kind: str
    #: The directive string for kind == "directive" (e.g. ``"suspend"``).
    directive: Optional[str]
    #: Source text-ish label of the delegation target for kind ==
    #: "delegate" (dotted call name, or ``"<expr>"``).
    target: Optional[str]
    #: Innermost-last tuple of enclosing unsplittable regions, drawn
    #: from {"with", "try", "try/finally", "except", "match"}.  Empty
    #: means the suspend sits in straight-line/loop/branch code.
    protected: Tuple[str, ...]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))


def suspend_points(func: ast.AST) -> List[SuspendPoint]:
    """Every ``yield``/``yield from`` of one ``def``, in execution-site
    order, each with the stack of protected regions around it.

    A structured walk: a compound statement's header expressions come
    before its blocks, and a region covers exactly what the lowering
    refuses to split — all of a ``with`` (items included), every part
    of a ``try`` statement, and a ``match`` from its subject down.
    """
    out: List[SuspendPoint] = []

    def scan(node: Optional[ast.AST], protect: Tuple[str, ...]) -> None:
        if node is None:
            return
        found = [n for n in (node, *walk_shallow(node))
                 if isinstance(n, (ast.Yield, ast.YieldFrom))]
        for y in sorted(found, key=lambda y: (y.lineno, y.col_offset)):
            kind, directive = classify_yield(y)
            target = None
            if kind == "delegate":
                target = (isinstance(y.value, ast.Call)
                          and call_name(y.value)) or "<expr>"
            out.append(SuspendPoint(y.lineno, y.col_offset, kind,
                                    directive, target, protect))

    def walk(stmts: Sequence[ast.stmt], protect: Tuple[str, ...]) -> None:
        for st in stmts:
            if isinstance(st, _SCOPES):
                continue  # a nested def/class is one opaque binding
            if isinstance(st, (ast.With, ast.AsyncWith)):
                inner = protect + ("with",)
                for item in st.items:
                    scan(item, inner)
                walk(st.body, inner)
            elif isinstance(st, _TRY):
                # A finally makes the whole statement one cleanup
                # region; without one the body (and else) still runs
                # within the handlers' reach.
                if st.finalbody:
                    whole = guarded = protect + ("try/finally",)
                else:
                    whole, guarded = protect, protect + ("try",)
                walk(st.body, guarded)
                walk(st.orelse, guarded)
                for handler in st.handlers:
                    scan(handler.type, guarded)
                    walk(handler.body, whole + ("except",))
                walk(st.finalbody, whole)
            elif isinstance(st, ast.Match):
                inner = protect + ("match",)
                scan(st.subject, inner)
                for case in st.cases:
                    scan(case.guard, inner)
                    walk(case.body, inner)
            elif isinstance(st, (ast.If, ast.While)):
                scan(st.test, protect)  # suspends before the branch
                walk(st.body, protect)
                walk(st.orelse, protect)
            elif isinstance(st, (ast.For, ast.AsyncFor)):
                scan(st.iter, protect)  # evaluated once, up front
                walk(st.body, protect)
                walk(st.orelse, protect)
            else:
                scan(st, protect)

    walk(func.body, ())
    return out


@dataclass
class CapturedMutation:
    """A closure-captured local rebound across a suspend point.

    The compiled form of a thread body stores its locals in a
    continuation record; a nested ``def``/``lambda`` that closes over a
    local which is *rebound* after a suspend observes either the old or
    the new binding depending on where the compiler materialises the
    cell — exactly the hazard CPC forbids by banning ``&local`` escape
    across cps calls.
    """

    name: str
    closure_line: int
    store_line: int
    suspend_line: int


def _free_loads(func: ast.AST) -> set:
    """Names loaded somewhere inside *func* but not bound by it."""
    bound = set(local_names(func))
    loads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
    return loads - bound


def captured_mutations(func: ast.AST) -> List[CapturedMutation]:
    """Find closure captures of locals rebound across a suspend point.

    Lexical approximation: the local must have a binding at or before
    some suspend line (a parameter counts) *and* a rebinding after it,
    and some nested scope must read it.  Sound for the straight-line
    bodies this repo compiles; loops can order lines differently, but a
    loop whose body both suspends and rebinds a captured name still has
    a store lexically after the first suspend line.
    """
    suspend_lines = sorted({y.lineno for y in ast.walk(func)
                            if isinstance(y, (ast.Yield, ast.YieldFrom))})
    if not suspend_lines:
        return []
    args = getattr(func, "args", None)
    params = set()
    if args is not None:
        for a in (args.posonlyargs + args.args + args.kwonlyargs
                  + ([args.vararg] if args.vararg else [])
                  + ([args.kwarg] if args.kwarg else [])):
            params.add(a.arg)
    stores: Dict[str, List[int]] = {}
    nested: List[ast.AST] = []
    pending = deque(ast.iter_child_nodes(func))
    while pending:
        node = pending.popleft()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            nested.append(node)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, []).append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    if not nested:
        return []
    out: List[CapturedMutation] = []
    local = set(stores) | params
    for closure in nested:
        for name in sorted(_free_loads(closure) & local):
            lines = stores.get(name, [])
            for s in suspend_lines:
                before = name in params or any(l <= s for l in lines)
                after = [l for l in lines if l > s]
                if before and after:
                    out.append(CapturedMutation(
                        name=name, closure_line=closure.lineno,
                        store_line=min(after), suspend_line=s))
                    break
    out.sort(key=lambda m: (m.suspend_line, m.name))
    return out


#: Innermost region label (:attr:`SuspendPoint.protected`) -> blocker kind.
_REGION_KIND = {
    "with": "suspend-in-with",
    "try": "suspend-in-try",
    "try/finally": "suspend-in-finally",
    "except": "suspend-under-except",
    "match": "suspend-in-match",
}


def unsplittable(func: ast.AST,
                 points: Optional[Sequence[SuspendPoint]] = None,
                 ) -> Iterator[Tuple[str, int, str]]:
    """``(kind, line, detail)`` for every construct in *func* that
    defeats the thread→event split: a suspend inside a protected region,
    a bare non-directive yield, a closure capture rebound across a
    suspend.  The FLW002 rule, the compilability classifier and
    ``compile_flow``'s preflight all render this one stream.

    *points* defaults to ``suspend_points(func)``; the classifier passes
    that list minus the delegations it has proved never suspend.
    """
    for sp in suspend_points(func) if points is None else points:
        if sp.protected:
            yield (_REGION_KIND[sp.protected[-1]], sp.line,
                   f"suspend point inside {' > '.join(sp.protected)} — "
                   f"the split cannot cut a try/with/match region; hoist "
                   f"the suspend out or make the cleanup an explicit "
                   f"continuation step")
        if sp.kind == "bare":
            yield ("bare-yield", sp.line,
                   'yield of a non-directive value; the scheduler '
                   'protocol only splits at "yield"/"suspend"/("io", ns) '
                   'directives and raises on anything else')
    for mut in captured_mutations(func):
        yield ("closure-across-suspend", mut.store_line,
               f"{mut.name!r} is captured by the closure at line "
               f"{mut.closure_line} and rebound at line {mut.store_line}, "
               f"across the suspend point at line {mut.suspend_line} — "
               f"the continuation record and the closure cell would "
               f"disagree; thread the value explicitly instead")
