"""Per-function control-flow graphs with explicit suspend nodes.

A thread body in this codebase is a Python generator driven by the
scheduler (:meth:`repro.core.thread.UThread.step`): ``yield "yield"``
and ``yield "suspend"`` are scheduler directives, ``yield ("io", ns)``
charges simulated time, and ``yield from helper(...)`` delegates the
whole directive stream to a suspending callee.  The CPC transformation
(PAPERS.md) splits a function at exactly these points, so the CFG here
records every yield as an explicit :class:`SuspendPoint` annotated with
the *protected regions* (``with`` blocks, ``try/finally``, ``except``
handlers) that enclose it — the constructs a splitting compiler cannot
cut through.

The graph is statement-granular: each :class:`BasicBlock` holds source
line numbers, and edges follow Python's structured control flow
(``if``/``while``/``for``/``try``/``match``, plus ``break``,
``continue``, ``return``, ``raise``).  Loop back edges are recorded
separately in :attr:`FunctionCFG.back_edges` — the compiler turns each
into an event re-post.  Nested ``def``/``lambda`` scopes are *not*
descended into: they are separate functions with their own CFGs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.astutil import call_name, is_generator, local_names

__all__ = [
    "BasicBlock",
    "CapturedMutation",
    "FunctionCFG",
    "SuspendPoint",
    "build_cfg",
    "captured_mutations",
    "classify_yield",
]

#: The scheduler directive strings a body may yield directly
#: (see ``repro.core.scheduler.Scheduler._handle``).
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
    #: Innermost-last tuple of enclosing unsplittable constructs, drawn
    #: from {"with", "try/finally", "except"}.  Empty means the suspend
    #: sits in straight-line splittable code.
    protected: Tuple[str, ...]
    #: The basic block this suspend terminates.
    block: int


@dataclass
class BasicBlock:
    """A maximal straight-line run of statements (suspends split blocks)."""

    id: int
    label: str
    lines: List[int] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


@dataclass
class FunctionCFG:
    """CFG of one function: blocks, loop back edges, suspend points."""

    name: str
    line: int
    is_generator: bool
    blocks: Dict[int, BasicBlock]
    entry: int
    exit: int
    #: (from_block, to_block) pairs closing a loop (body end / continue
    #: back to the loop header).
    back_edges: List[Tuple[int, int]]
    suspends: List[SuspendPoint]

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def directive_suspends(self) -> List[SuspendPoint]:
        return [s for s in self.suspends if s.kind == "directive"]

    def delegations(self) -> List[SuspendPoint]:
        return [s for s in self.suspends if s.kind == "delegate"]

    def bare_yields(self) -> List[SuspendPoint]:
        return [s for s in self.suspends if s.kind == "bare"]

    def protected_suspends(self) -> List[SuspendPoint]:
        return [s for s in self.suspends if s.protected]


class _Builder:
    """Structured walk of one function body; no descent into nested scopes."""

    def __init__(self, func: ast.AST) -> None:
        self.blocks: Dict[int, BasicBlock] = {}
        self.back_edges: List[Tuple[int, int]] = []
        self.suspends: List[SuspendPoint] = []
        self.protect: List[str] = []
        #: (header_block, exit_block) per enclosing loop, innermost last.
        self.loops: List[Tuple[int, int]] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.current = self.entry
        self._build(func)

    # -- graph plumbing ------------------------------------------------

    def _new(self, label: str) -> int:
        bid = len(self.blocks)
        self.blocks[bid] = BasicBlock(id=bid, label=label)
        return bid

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def _line(self, node: ast.AST) -> None:
        line = getattr(node, "lineno", None)
        if line is not None:
            block = self.blocks[self.current]
            if not block.lines or block.lines[-1] != line:
                block.lines.append(line)

    # -- suspend detection --------------------------------------------

    def _yields_in(self, node: ast.AST) -> Iterator[ast.expr]:
        """Yield nodes lexically inside *node*, skipping nested scopes.

        Comprehensions cannot contain ``yield`` (SyntaxError since 3.8)
        and lambdas never could, so skipping Lambda/def/class interiors
        is exact, not an approximation.
        """
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop(0)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                yield child
            stack.extend(ast.iter_child_nodes(child))

    def _delegate_target(self, node: ast.YieldFrom) -> str:
        value = node.value
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name:
                return name
        return "<expr>"

    def _scan(self, node: ast.AST) -> None:
        """Record suspend points in *node* and split the block at each."""
        found = sorted(self._yields_in(node),
                       key=lambda y: (y.lineno, y.col_offset))
        for y in found:
            kind, directive = classify_yield(y)
            target = (self._delegate_target(y)
                      if isinstance(y, ast.YieldFrom) else None)
            self.suspends.append(SuspendPoint(
                line=y.lineno, col=y.col_offset, kind=kind,
                directive=directive, target=target,
                protected=tuple(self.protect), block=self.current))
            resume = self._new("resume")
            self._edge(self.current, resume)
            self.current = resume

    def _stmt(self, node: ast.stmt) -> None:
        self._line(node)
        self._scan(node)

    # -- statement dispatch -------------------------------------------

    def _build(self, func: ast.AST) -> None:
        self._body(func.body)
        self._edge(self.current, self.exit)

    def _body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._visit(stmt)

    def _visit(self, node: ast.stmt) -> None:
        method = getattr(self, "_visit_" + type(node).__name__, None)
        if method is not None:
            method(node)
        else:
            self._stmt(node)

    def _visit_FunctionDef(self, node: ast.stmt) -> None:
        # A nested def/class is one opaque binding statement here; its
        # interior gets its own CFG if anyone asks for one.
        self._line(node)

    _visit_AsyncFunctionDef = _visit_FunctionDef
    _visit_ClassDef = _visit_FunctionDef

    def _visit_Return(self, node: ast.Return) -> None:
        self._line(node)
        if node.value is not None:
            self._scan(node)
        self._edge(self.current, self.exit)
        self.current = self._new("unreachable")

    def _visit_Raise(self, node: ast.Raise) -> None:
        # Coarse: a raise leaves the function (handler edges are drawn
        # from the try entry in _visit_Try, not per-raise).
        self._stmt(node)
        self._edge(self.current, self.exit)
        self.current = self._new("unreachable")

    def _visit_Break(self, node: ast.Break) -> None:
        self._line(node)
        if self.loops:
            self._edge(self.current, self.loops[-1][1])
        self.current = self._new("unreachable")

    def _visit_Continue(self, node: ast.Continue) -> None:
        self._line(node)
        if self.loops:
            header = self.loops[-1][0]
            self._edge(self.current, header)
            self.back_edges.append((self.current, header))
        self.current = self._new("unreachable")

    def _visit_If(self, node: ast.If) -> None:
        self._line(node)
        self._scan(node.test)  # a yield in the test suspends pre-branch
        branch = self.current
        join = self._new("join")
        then = self._new("then")
        self._edge(branch, then)
        self.current = then
        self._body(node.body)
        self._edge(self.current, join)
        if node.orelse:
            other = self._new("else")
            self._edge(branch, other)
            self.current = other
            self._body(node.orelse)
            self._edge(self.current, join)
        else:
            self._edge(branch, join)
        self.current = join

    def _loop(self, node, header_label: str) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._line(node)
            self._scan(node.iter)  # the iterable is evaluated once, up front
        header = self._new(header_label)
        self._edge(self.current, header)
        self.current = header
        if isinstance(node, ast.While):
            self._line(node)
            self._scan(node.test)
        after = self._new("loop-exit")
        body = self._new("loop-body")
        # After a while-test suspend, self.current is the resume block.
        self._edge(self.current, body)
        self._edge(self.current, after)
        self.loops.append((header, after))
        self.current = body
        self._body(node.body)
        self._edge(self.current, header)
        self.back_edges.append((self.current, header))
        self.loops.pop()
        if node.orelse:
            # for/while-else runs on normal exhaustion; keep it on the
            # exit path without a dedicated else block.
            self.current = after
            self._body(node.orelse)
            after = self.current
        self.current = after

    def _visit_While(self, node: ast.While) -> None:
        self._loop(node, "while-header")

    def _visit_For(self, node: ast.For) -> None:
        self._loop(node, "for-header")

    _visit_AsyncFor = _visit_For

    def _visit_With(self, node) -> None:
        self._line(node)
        for item in node.items:
            self._scan(item.context_expr)
        inner = self._new("with-body")
        self._edge(self.current, inner)
        self.current = inner
        self.protect.append("with")
        self._body(node.body)
        self.protect.pop()

    _visit_AsyncWith = _visit_With

    def _visit_Try(self, node) -> None:
        self._line(node)
        has_finally = bool(node.finalbody)
        if has_finally:
            self.protect.append("try/finally")
        entry = self.current
        body = self._new("try-body")
        self._edge(entry, body)
        self.current = body
        self._body(node.body)
        self._body(node.orelse)
        tails = [self.current]
        for handler in node.handlers:
            hb = self._new("except")
            # Coarse: the exception may fire anywhere in the body, so
            # the handler edge leaves the try entry block.
            self._edge(body, hb)
            self.current = hb
            self.protect.append("except")
            self._body(handler.body)
            self.protect.pop()
            tails.append(self.current)
        if has_finally:
            join = self._new("finally")
            for tail in tails:
                self._edge(tail, join)
            self.current = join
            self._body(node.finalbody)
            self.protect.pop()
        else:
            join = self._new("join")
            for tail in tails:
                self._edge(tail, join)
            self.current = join

    _visit_TryStar = _visit_Try

    def _visit_Match(self, node) -> None:
        self._line(node)
        self._scan(node.subject)
        subject = self.current
        join = self._new("join")
        for case in node.cases:
            arm = self._new("case")
            self._edge(subject, arm)
            self.current = arm
            self._body(case.body)
            self._edge(self.current, join)
        self._edge(subject, join)  # no case matched
        self.current = join


def build_cfg(func: ast.AST) -> FunctionCFG:
    """Build the :class:`FunctionCFG` for one ``def`` (or lambda) node."""
    if isinstance(func, ast.Lambda):
        # A lambda body cannot contain yield; its CFG is trivial.
        builder = _Builder.__new__(_Builder)
        builder.blocks = {}
        builder.back_edges = []
        builder.suspends = []
        builder.protect = []
        builder.loops = []
        builder.entry = builder._new("entry")
        builder.exit = builder._new("exit")
        builder.current = builder.entry
        builder._edge(builder.entry, builder.exit)
        return FunctionCFG(name="<lambda>", line=func.lineno,
                           is_generator=False, blocks=builder.blocks,
                           entry=builder.entry, exit=builder.exit,
                           back_edges=[], suspends=[])
    builder = _Builder(func)
    return FunctionCFG(
        name=getattr(func, "name", "<lambda>"),
        line=func.lineno,
        is_generator=is_generator(func),
        blocks=builder.blocks,
        entry=builder.entry,
        exit=builder.exit,
        back_edges=builder.back_edges,
        suspends=builder.suspends,
    )


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
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            nested.append(node)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, []).append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
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
