"""Thread-to-continuation compiler (ROADMAP item 2's middle layer).

Mechanically transforms a generator-based thread body — the natural,
blocking-receive style of Section 2.3 — into the event-driven
continuation form of Section 2.4, without asking the programmer to
perform the inversion by hand (the route CPC and *Generating events
with style* take).  The output runs on the fast-path
:class:`~repro.kernel.EventKernel` through
:class:`~repro.flows.runtime.FlowWorld`, byte-identical in kernel trace
to the generator original.

Pipeline
--------
1. **Gate** — the live interprocedural analysis
   (:func:`repro.analysis.flow.compilability.classify_bodies`) must
   classify the body COMPILABLE; NEEDS-REWRITE/OPAQUE bodies are
   *refused* with their precise FLW002 blockers.  The checked-in
   ``results/flow_report.json`` is the same analysis, so the report is
   a contract, not documentation.
2. **Normalization** — the one conditional form real bodies use,
   ``x = (yield from E) if C else D``, is rewritten into an explicit
   ``if``/``else`` statement pair; everything else must already be in
   normal form (suspends only as expression statements or simple
   single-name assignments).
3. **Lowering** — the body is split at its suspend points (the same
   points :func:`repro.analysis.flow.suspends.suspend_points` reports,
   and refused over the same constructs
   :func:`~repro.analysis.flow.suspends.unsplittable` names) into a
   state machine of plain functions ``state(mpi, _f) -> next``.  Locals
   live in an explicit ``__slots__`` frame record; loops become
   back-edge state transfers (re-posted through the kernel whenever the
   iteration suspends); ``yield from`` delegation to another generator
   is chained through continuation hand-off frames; delegation to the
   runtime interface (``mpi.recv`` / ``mpi.barrier``) maps onto the
   ``op_*`` continuation primitives of
   :class:`~repro.flows.runtime.CompiledTask`.
4. **Fusion** — a ``return (S, _f)`` goto costs a trampoline bounce, so
   the lowered states are fused to one per straight-line run
   (:meth:`_FunctionLowering.fuse`): a goto to a lone
   ``return mpi.op_*(...)`` becomes that call, a state only one goto
   names is inlined there, unreached states are dropped.  What stays a
   boundary is what must be nameable: a ``cont``/``retry`` target, a
   join, a loop header, a helper's entry.  CPC keeps its translation
   cheap the same way — straight-line code is not split per statement.
5. **Codegen** — the states are emitted as Python source
   (:data:`CompiledFlow.source`), compiled, and executed in a namespace
   seeded with the original function's globals and closure values.

Known deltas vs. real generators (documented in ``docs/flows.md``):
reading a local before assignment raises ``AttributeError`` (not
``UnboundLocalError``); closure cells and module globals are snapshot
at compile time; and a small statement subset (``try``/``with``
around suspends, nested defs, lambdas, walrus) is refused rather than
compiled.
"""

from __future__ import annotations

import ast
import collections
import functools
import inspect
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.astutil import local_names
from repro.analysis.flow.callgraph import runtime_interface
from repro.analysis.flow.compilability import (COMPILABLE, BodyReport,
                                               classify_bodies)
from repro.analysis.flow.suspends import (classify_yield, suspend_points,
                                          unsplittable)
from repro.errors import ReproError

__all__ = ["FlowCompileError", "CompiledFlow", "compile_flow",
           "classify_function"]

#: Runtime-interface delegations the compiler lowers onto continuation
#: primitives (method name -> CompiledTask op).
_PRIMITIVES = {"recv": "op_recv", "barrier": "op_barrier"}

#: What a lowered ``for`` header's ``next(it, _END)`` reads at loop exit.
_END = object()


class FlowCompileError(ReproError):
    """A body the compiler refuses, with the analysis blockers (if the
    refusal came from the FLW002 gate) attached."""

    def __init__(self, message: str, blockers: Sequence[Any] = ()):
        super().__init__(message)
        self.blockers = list(blockers)


@dataclass(frozen=True)
class CompiledFlow:
    """One compiled thread body, as
    :meth:`~repro.flows.runtime.FlowWorld.spawn` instantiates it per
    rank."""

    qualname: str
    path: str
    line: int
    #: Generated Python source of the full state machine.
    source: str
    #: Entry state function ``(task, frame) -> next``.
    entry: Callable[..., Any]
    #: Frame record class for the outermost function.
    frame_factory: Callable[[], Any]
    #: State functions left after fusion, delegated helpers' included.
    n_states: int
    #: Suspend points of the outermost body (== ``suspend_points``' count).
    suspend_points: int


# ---------------------------------------------------------------------------
# the analysis gate
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _classify_file(path: str, mtime: float) -> Tuple[BodyReport, ...]:
    """Classify every thread body in one file with the live analysis."""
    root, base = os.path.split(os.path.abspath(path))
    return tuple(classify_bodies(root, roots=(base,),
                                 interface=runtime_interface()))


def classify_function(fn: Callable[..., Any]) -> BodyReport:
    """The live-analysis verdict for one function object.

    Locates ``fn``'s source file, runs the same classifier that
    produces ``results/flow_report.json`` over it, and returns the
    matching :class:`BodyReport`.  Raises :class:`FlowCompileError` if
    the function is not a recognized thread body.
    """
    path = inspect.getsourcefile(fn)
    if path is None or not os.path.exists(path):
        raise FlowCompileError(
            f"{fn!r}: no source file (interactive or frozen functions "
            f"cannot be gated, hence not compiled)")
    qualname = fn.__qualname__.replace(".<locals>", "")
    line = fn.__code__.co_firstlineno
    reports = _classify_file(path, os.path.getmtime(path))
    for report in reports:
        if report.qualname == qualname and report.line == line:
            return report
    raise FlowCompileError(
        f"{qualname} ({path}:{line}) is not a recognized thread body — "
        f"the flow analysis found "
        f"{[r.qualname for r in reports] or 'no bodies'} in that file")


def _gate(fn: Callable[..., Any]) -> BodyReport:
    report = classify_function(fn)
    if report.classification != COMPILABLE:
        lines = [
            f"refusing to compile {report.qualname} "
            f"({report.path}:{report.line}): classified "
            f"{report.classification} by the flow analysis:"]
        for b in report.blockers:
            lines.append(f"  {b.rule} {b.path}:{b.line} [{b.kind}] "
                         f"{b.detail}")
        raise FlowCompileError("\n".join(lines), blockers=report.blockers)
    return report


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------

def _function_ast(fn: Callable[..., Any]) -> Tuple[ast.Module,
                                                   ast.FunctionDef]:
    """Parse ``fn``'s whole source file and locate its def node.

    Parsing the file (rather than ``inspect.getsource`` of the nested
    function) sidesteps indentation stripping and keeps sibling helper
    defs resolvable for delegation inlining.
    """
    path = inspect.getsourcefile(fn)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    line = fn.__code__.co_firstlineno
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == fn.__name__ \
                and node.lineno == line:
            return tree, node
    raise FlowCompileError(
        f"cannot locate the def of {fn.__qualname__} at {path}:{line}")


def _has_suspend(node: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in ast.walk(node))


def _refuse(node: ast.AST, why: str) -> FlowCompileError:
    line = getattr(node, "lineno", "?")
    return FlowCompileError(f"line {line}: {why}")


def _normalize_block(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """Rewrite ``x = (yield from E) if C else D`` into if/else
    statements (recursively through compound statements)."""
    out: List[ast.stmt] = []
    for st in stmts:
        if (isinstance(st, ast.Assign) and len(st.targets) == 1
                and isinstance(st.targets[0], ast.Name)
                and isinstance(st.value, ast.IfExp)
                and (_has_suspend(st.value.body)
                     or _has_suspend(st.value.orelse))):
            if _has_suspend(st.value.test):
                raise _refuse(st, "suspend inside a conditional's test")
            name = st.targets[0].id

            def assign(expr: ast.expr) -> ast.stmt:
                new = ast.Assign(
                    targets=[ast.Name(id=name, ctx=ast.Store())],
                    value=expr)
                return ast.copy_location(new, st)

            cond = ast.If(test=st.value.test,
                          body=[assign(st.value.body)],
                          orelse=[assign(st.value.orelse)])
            out.append(ast.copy_location(cond, st))
            continue
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(st, attr, None)
            if isinstance(sub, list) and sub \
                    and isinstance(sub[0], ast.stmt):
                setattr(st, attr, _normalize_block(sub))
        out.append(st)
    return out


def _preflight(fn_node: ast.FunctionDef) -> None:
    """Refuse constructs the state-machine transform cannot carry."""
    for node in ast.walk(fn_node):
        if node is fn_node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            raise _refuse(node, "nested def/class in a compiled body "
                                "(its closure would not survive the "
                                "frame transform)")
        if isinstance(node, ast.Lambda):
            raise _refuse(node, "lambda in a compiled body (it would "
                                "close over the dissolved locals)")
        if isinstance(node, ast.NamedExpr):
            raise _refuse(node, "walrus assignment in a compiled body")
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            raise _refuse(node, "global/nonlocal in a compiled body")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            raise _refuse(node, "import inside a compiled body")
    for kind, line, detail in unsplittable(fn_node):  # refuse at the first
        raise FlowCompileError(f"line {line}: [{kind}] {detail}")


def _owned_break_continue(stmts: Sequence[ast.stmt]) -> Optional[ast.stmt]:
    """First break/continue belonging to *this* loop level (does not
    descend into nested loops, whose break/continue are their own)."""
    for st in stmts:
        if isinstance(st, (ast.Break, ast.Continue)):
            return st
        if isinstance(st, (ast.For, ast.While)):
            continue
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(st, attr, None)
            if isinstance(sub, list):
                found = _owned_break_continue(sub)
                if found is not None:
                    return found
    return None


class _BodyRewriter(ast.NodeTransformer):
    """Locals -> frame attributes; ``return`` -> continuation hand-off."""

    def __init__(self, locals_: set, receiver: str) -> None:
        self.locals = set(locals_) - {receiver}
        self.receiver = receiver
        self._shadow: List[set] = []

    def _shadowed(self, name: str) -> bool:
        return any(name in s for s in self._shadow)

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id in self.locals and not self._shadowed(node.id):
            attr = ast.Attribute(value=ast.Name(id="_f", ctx=ast.Load()),
                                 attr=node.id, ctx=node.ctx)
            return ast.copy_location(attr, node)
        return node

    def visit_Return(self, node: ast.Return) -> ast.AST:
        value = self.visit(node.value) if node.value is not None \
            else ast.Constant(value=None)
        call = ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=self.receiver, ctx=ast.Load()),
                attr="op_return", ctx=ast.Load()),
            args=[ast.Name(id="_f", ctx=ast.Load()), value], keywords=[])
        return ast.copy_location(ast.Return(value=call), node)

    def _visit_comp(self, node):
        # The first generator's iterable evaluates in the enclosing
        # scope; the targets shadow frame locals for everything else.
        shadow = set()
        for gen in node.generators:
            for t in ast.walk(gen.target):
                if isinstance(t, ast.Name):
                    shadow.add(t.id)
        node.generators[0].iter = self.visit(node.generators[0].iter)
        self._shadow.append(shadow)
        try:
            for i, gen in enumerate(node.generators):
                if i > 0:
                    gen.iter = self.visit(gen.iter)
                gen.ifs = [self.visit(c) for c in gen.ifs]
            if isinstance(node, ast.DictComp):
                node.key = self.visit(node.key)
                node.value = self.visit(node.value)
            else:
                node.elt = self.visit(node.elt)
        finally:
            self._shadow.pop()
        return node

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp


# ---------------------------------------------------------------------------
# the lowering
# ---------------------------------------------------------------------------

class _FunctionLowering:
    """Lower one function's statements into state functions."""

    def __init__(self, compiler: "_Compiler", fn_node: ast.FunctionDef,
                 prefix: str) -> None:
        self.compiler = compiler
        self.fn_node = fn_node
        self.prefix = prefix
        args = fn_node.args
        if args.vararg or args.kwarg or args.kwonlyargs \
                or args.posonlyargs:
            raise _refuse(fn_node, "compiled bodies take plain "
                                   "positional parameters only")
        if not args.args:
            raise _refuse(fn_node, "a thread body needs its runtime "
                                   "receiver parameter")
        self.receiver = args.args[0].arg
        self.params = [a.arg for a in args.args[1:]]
        self.locals = set(local_names(fn_node)) - {self.receiver}
        self.hidden: List[str] = []
        self.rewriter = _BodyRewriter(self.locals, self.receiver)
        self.n_suspends = 0
        self._counter = 0
        self.states: List[ast.FunctionDef] = []
        self.frame_name = f"_Frame_{prefix}"

    # -- small builders -------------------------------------------------

    def _state_name(self) -> str:
        name = f"_{self.prefix}_s{self._counter}"
        self._counter += 1
        return name

    def _load(self, name: str) -> ast.expr:
        return ast.Name(id=name, ctx=ast.Load())

    def _goto(self, state: str) -> ast.stmt:
        return ast.Return(value=ast.Tuple(
            elts=[self._load(state), self._load("_f")], ctx=ast.Load()))

    def _emit(self, name: str, body: List[ast.stmt]) -> str:
        fn = ast.FunctionDef(
            name=name,
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg=self.receiver), ast.arg(arg="_f")],
                kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=body, decorator_list=[])
        self.states.append(fn)
        return name

    def _op_call(self, op: str, args: List[ast.expr]) -> ast.stmt:
        call = ast.Call(
            func=ast.Attribute(value=self._load(self.receiver), attr=op,
                               ctx=ast.Load()),
            args=[self._load("_f"), *args], keywords=[])
        return ast.Return(value=call)

    def rewrite(self, node: ast.AST) -> ast.AST:
        return self.rewriter.visit(node)

    # -- the lowering proper --------------------------------------------

    def lower_function(self) -> str:
        body = _normalize_block(list(self.fn_node.body))
        done = self._emit(self._state_name(), [self._op_call(
            "op_return", [ast.Constant(value=None)])])
        return self.lower_block(body, done)

    def lower_block(self, stmts: List[ast.stmt], k: str) -> str:
        """Entry state executing ``stmts`` then continuing at ``k``."""
        split = None
        for i, st in enumerate(stmts):
            if _has_suspend(st) or isinstance(st, ast.Return):
                split = i
                break
        if split is None:
            if not stmts:
                return k
            body = [self.rewrite(s) for s in stmts]
            body.append(self._goto(k))
            return self._emit(self._state_name(), body)
        rest = self.lower_block(stmts[split + 1:], k)
        entry = self.lower_stmt(stmts[split], rest)
        prefix = stmts[:split]
        if not prefix:
            return entry
        body = [self.rewrite(s) for s in prefix]
        body.append(self._goto(entry))
        return self._emit(self._state_name(), body)

    def lower_stmt(self, st: ast.stmt, k: str) -> str:
        if isinstance(st, ast.Return):
            # rewrite() turns this into `return mpi.op_return(_f, v)`.
            return self._emit(self._state_name(), [self.rewrite(st)])
        if isinstance(st, ast.Expr) and isinstance(st.value, ast.Yield):
            return self.lower_directive(st.value, k)
        if isinstance(st, ast.Expr) \
                and isinstance(st.value, ast.YieldFrom):
            return self.lower_delegation(st.value, None, st, k)
        if isinstance(st, ast.Assign):
            if len(st.targets) == 1 and isinstance(st.targets[0], ast.Name) \
                    and isinstance(st.value, ast.YieldFrom):
                return self.lower_delegation(st.value, st.targets[0].id,
                                             st, k)
            raise _refuse(st, "suspend only compiles as an expression "
                              "statement or `x = yield from ...` — "
                              "normalize this assignment first")
        if isinstance(st, ast.If):
            return self.lower_if(st, k)
        if isinstance(st, ast.While):
            return self.lower_while(st, k)
        if isinstance(st, ast.For):
            return self.lower_for(st, k)
        raise _refuse(st, f"cannot compile a suspend inside "
                          f"{type(st).__name__}")

    def lower_directive(self, node: ast.Yield, k: str) -> str:
        kind, directive = classify_yield(node)
        self.n_suspends += 1
        if directive == "yield":
            return self._emit(self._state_name(),
                              [self._op_call("op_yield", [self._load(k)])])
        if directive == "exit":
            return self._emit(self._state_name(),
                              [self._op_call("op_exit", [])])
        raise _refuse(node, f"directive {directive!r} ({kind}) is not "
                            f"compilable — the flows runtime compiles "
                            f"yield/exit directives and runtime "
                            f"delegations only")

    def lower_delegation(self, node: ast.YieldFrom, var: Optional[str],
                         st: ast.stmt, k: str) -> str:
        call = node.value
        if not isinstance(call, ast.Call):
            raise _refuse(st, "yield from a non-call is not compilable")
        self.n_suspends += 1
        fn = call.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                and fn.value.id == self.receiver:
            return self.lower_primitive(fn.attr, call, var, st, k)
        if isinstance(fn, ast.Name):
            return self.lower_helper_call(fn.id, call, var, st, k)
        raise _refuse(st, "delegation target must be a runtime-interface "
                          "method or a sibling generator function")

    def lower_primitive(self, meth: str, call: ast.Call,
                        var: Optional[str], st: ast.stmt, k: str) -> str:
        if meth not in _PRIMITIVES:
            raise _refuse(st, f"runtime method {self.receiver}.{meth} has "
                              f"no continuation primitive (supported: "
                              f"{sorted(_PRIMITIVES)})")
        if meth == "barrier":
            if var is not None:
                raise _refuse(st, "barrier() returns nothing — drop the "
                                  "assignment")
            if call.args or call.keywords:
                raise _refuse(st, "barrier() takes no arguments")
            return self._emit(self._state_name(),
                              [self._op_call("op_barrier",
                                             [self._load(k)])])
        # recv(source=None, tag=None)
        source: ast.expr = ast.Constant(value=None)
        tag: ast.expr = ast.Constant(value=None)
        pos = list(call.args)
        if len(pos) > 2:
            raise _refuse(st, "recv() takes (source, tag)")
        if pos:
            source = pos[0]
        if len(pos) == 2:
            tag = pos[1]
        for kw in call.keywords:
            if kw.arg == "source":
                source = kw.value
            elif kw.arg == "tag":
                tag = kw.value
            else:
                raise _refuse(st, f"recv() got unexpected keyword "
                                  f"{kw.arg!r}")
        name = self._state_name()
        return self._emit(name, [self._op_call("op_recv", [
            self._load(name), self._load(k),
            ast.Constant(value=var),
            self.rewrite(source), self.rewrite(tag)])])

    def lower_helper_call(self, helper: str, call: ast.Call,
                          var: Optional[str], st: ast.stmt,
                          k: str) -> str:
        if not call.args or not (isinstance(call.args[0], ast.Name)
                                 and call.args[0].id == self.receiver):
            raise _refuse(st, f"delegation to {helper}() must pass the "
                              f"runtime receiver ({self.receiver}) as its "
                              f"first argument")
        entry, frame_cls, params = self.compiler.compile_helper(helper, st)
        # Bind arguments (positionally then by keyword) onto the child
        # frame, park the caller's continuation, and transfer.
        bindings: Dict[str, ast.expr] = {}
        for pname, arg in zip(params, call.args[1:]):
            bindings[pname] = arg
        if len(call.args) - 1 > len(params):
            raise _refuse(st, f"{helper}() takes {len(params)} "
                              f"argument(s) beside the receiver")
        for kw in call.keywords:
            if kw.arg not in params or kw.arg in bindings:
                raise _refuse(st, f"bad keyword {kw.arg!r} in delegation "
                                  f"to {helper}()")
            bindings[kw.arg] = kw.value
        missing = [p for p in params if p not in bindings]
        if missing:
            raise _refuse(st, f"delegation to {helper}() leaves "
                              f"{missing} unbound (defaults are not "
                              f"compiled)")
        body: List[ast.stmt] = [ast.Assign(
            targets=[ast.Name(id="_cf", ctx=ast.Store())],
            value=ast.Call(func=self._load(frame_cls), args=[],
                           keywords=[]))]
        for pname in params:
            body.append(ast.Assign(
                targets=[ast.Attribute(
                    value=ast.Name(id="_cf", ctx=ast.Load()),
                    attr=pname, ctx=ast.Store())],
                value=self.rewrite(bindings[pname])))
        body.append(ast.Assign(
            targets=[ast.Attribute(
                value=ast.Name(id="_cf", ctx=ast.Load()),
                attr="_ret", ctx=ast.Store())],
            value=ast.Tuple(elts=[
                self._load(k), self._load("_f"),
                ast.Constant(value=var)], ctx=ast.Load())))
        body.append(ast.Return(value=ast.Tuple(
            elts=[self._load(entry),
                  ast.Name(id="_cf", ctx=ast.Load())], ctx=ast.Load())))
        return self._emit(self._state_name(), body)

    def lower_if(self, st: ast.If, k: str) -> str:
        if _has_suspend(st.test):
            raise _refuse(st, "suspend inside an if-test")
        then_entry = self.lower_block(list(st.body), k)
        else_entry = self.lower_block(list(st.orelse), k)
        body = [ast.If(test=self.rewrite(st.test),
                       body=[self._goto(then_entry)],
                       orelse=[self._goto(else_entry)])]
        return self._emit(self._state_name(), body)

    def lower_while(self, st: ast.While, k: str) -> str:
        if _has_suspend(st.test):
            raise _refuse(st, "suspend inside a while-test")
        bad = _owned_break_continue(st.body)
        if bad is not None:
            raise _refuse(bad, "break/continue in a suspending loop is "
                               "not compiled — restructure the loop")
        header = self._state_name()
        exit_ = self.lower_block(list(st.orelse), k)
        body_entry = self.lower_block(list(st.body), header)
        self._emit(header, [ast.If(test=self.rewrite(st.test),
                                   body=[self._goto(body_entry)],
                                   orelse=[self._goto(exit_)])])
        return header

    def lower_for(self, st: ast.For, k: str) -> str:
        if _has_suspend(st.iter):
            raise _refuse(st, "suspend inside a for-iterable")
        bad = _owned_break_continue(st.body)
        if bad is not None:
            raise _refuse(bad, "break/continue in a suspending loop is "
                               "not compiled — restructure the loop")
        it_field = f"_it{len(self.hidden)}"
        self.hidden.append(it_field)
        header = self._state_name()
        exit_ = self.lower_block(list(st.orelse), k)
        body_entry = self.lower_block(list(st.body), header)
        it_attr = ast.Attribute(value=ast.Name(id="_f", ctx=ast.Load()),
                                attr=it_field, ctx=ast.Load())
        # header: advance the explicit iterator or leave the loop.  No
        # ``try:`` here — the fusion pass inlines the loop body and the
        # exit path into this state, and neither may land where a
        # ``StopIteration`` of its own would read as loop exit.
        self._emit(header, [
            ast.Assign(
                targets=[ast.Name(id="_n", ctx=ast.Store())],
                value=ast.Call(func=self._load("next"),
                               args=[it_attr, self._load("_END")],
                               keywords=[])),
            ast.If(test=ast.Compare(left=self._load("_n"), ops=[ast.Is()],
                                    comparators=[self._load("_END")]),
                   body=[self._goto(exit_)], orelse=[]),
            ast.Assign(targets=[self.rewrite(st.target)],
                       value=self._load("_n")),
            self._goto(body_entry)])
        setup = [ast.Assign(
            targets=[ast.Attribute(
                value=ast.Name(id="_f", ctx=ast.Load()),
                attr=it_field, ctx=ast.Store())],
            value=ast.Call(func=self._load("iter"),
                           args=[self.rewrite(st.iter)], keywords=[])),
            self._goto(header)]
        return self._emit(self._state_name(), setup)

    # -- fusion --------------------------------------------------------

    def fuse(self, entry: str) -> None:
        """One state per straight-line run: a goto whose target is a
        lone ``return mpi.op_*(...)`` becomes that call (the state
        survives only where something names it as ``retry``/``cont``), a
        state nothing but one goto names is inlined at that goto, and
        what ``entry`` no longer reaches is dropped.  Each rewrite
        removes one trampoline bounce and moves no statement past
        another, so the kernel trace cannot tell."""
        bodies = {fn.name: fn.body for fn in self.states}
        named = collections.Counter(
            n.id for fn in self.states for n in ast.walk(fn)
            if isinstance(n, ast.Name) and n.id in bodies)

        keep = set()
        work = [entry]
        while work:
            name = work.pop()
            if name not in keep:
                keep.add(name)
                work.extend(n.id for st in self._resolve(bodies[name], bodies,
                                                         named, entry)
                            for n in ast.walk(st)
                            if isinstance(n, ast.Name) and n.id in bodies)
        self.states = [fn for fn in self.states if fn.name in keep]

    @staticmethod
    def _resolve(block: List[ast.stmt], bodies: Dict[str, List[ast.stmt]],
                 named: "collections.Counter[str]",
                 entry: str) -> List[ast.stmt]:
        """:meth:`fuse`'s rewrite of one block, in place (a method, not a
        recursive closure: that would be a cycle holding the tree)."""
        # Gotos end blocks, and blocks nest through ``if`` only.
        for st in block:
            if isinstance(st, ast.If):
                _FunctionLowering._resolve(st.body, bodies, named, entry)
                _FunctionLowering._resolve(st.orelse, bodies, named, entry)
        last = block[-1] if block else None
        if isinstance(last, ast.Return) \
                and isinstance(last.value, ast.Tuple) \
                and last.value.elts[1].id == "_f":
            target = last.value.elts[0].id
            body = bodies[target]
            if len(body) == 1 and isinstance(body[0], ast.Return) \
                    and isinstance(body[0].value, ast.Call):
                block[-1] = body[0]
            elif named[target] == 1 and target != entry:
                block[-1:] = _FunctionLowering._resolve(body, bodies, named,
                                                        entry)
        return block

    # -- frame ----------------------------------------------------------

    def frame_class(self) -> ast.ClassDef:
        fields = sorted(self.locals | set(self.hidden)) + ["_ret"]
        init = ast.FunctionDef(
            name="__init__",
            args=ast.arguments(posonlyargs=[],
                               args=[ast.arg(arg="self")], kwonlyargs=[],
                               kw_defaults=[], defaults=[]),
            body=[ast.Assign(
                targets=[ast.Attribute(
                    value=ast.Name(id="self", ctx=ast.Load()),
                    attr="_ret", ctx=ast.Store())],
                value=ast.Constant(value=None))],
            decorator_list=[])
        return ast.ClassDef(
            name=self.frame_name, bases=[], keywords=[],
            body=[ast.Assign(
                targets=[ast.Name(id="__slots__", ctx=ast.Store())],
                value=ast.Tuple(
                    elts=[ast.Constant(value=f) for f in fields],
                    ctx=ast.Load())),
                init],
            decorator_list=[])


class _Compiler:
    """Compile one body plus its delegation closure into one module."""

    def __init__(self, module_ast: ast.Module) -> None:
        self.module_ast = module_ast
        self.lowerings: List[_FunctionLowering] = []
        self._helpers: Dict[str, Tuple[str, str, List[str]]] = {}
        self._in_progress: set = set()
        self._next_fn = 0

    def _prefix(self) -> str:
        p = f"f{self._next_fn}"
        self._next_fn += 1
        return p

    def compile_function(self, fn_node: ast.FunctionDef
                         ) -> Tuple[str, str, List[str]]:
        if fn_node.name in self._in_progress:
            raise _refuse(fn_node, f"recursive delegation through "
                                   f"{fn_node.name}() is not compilable")
        self._in_progress.add(fn_node.name)
        try:
            _preflight(fn_node)
            low = _FunctionLowering(self, fn_node, self._prefix())
            entry = low.lower_function()
            low.fuse(entry)
            # Lowered: the helpers it delegates to are compiled, so the
            # back-edge goes before the lowering joins ``lowerings``.
            low.compiler = None
            self.lowerings.append(low)
            return entry, low.frame_name, low.params
        finally:
            self._in_progress.discard(fn_node.name)

    def compile_helper(self, name: str,
                       at: ast.stmt) -> Tuple[str, str, List[str]]:
        if name in self._helpers:
            return self._helpers[name]
        candidates = [n for n in ast.walk(self.module_ast)
                      if isinstance(n, ast.FunctionDef) and n.name == name]
        if not candidates:
            raise _refuse(at, f"delegation target {name}() is not "
                              f"defined in this module")
        if len(candidates) > 1:
            raise _refuse(at, f"delegation target {name}() is ambiguous "
                              f"({len(candidates)} defs in the module)")
        result = self.compile_function(candidates[0])
        self._helpers[name] = result
        return result

    def module(self) -> ast.Module:
        body: List[ast.stmt] = []
        for low in self.lowerings:
            body.append(low.frame_class())
        for low in self.lowerings:
            body.extend(low.states)
        mod = ast.Module(body=body, type_ignores=[])
        return ast.fix_missing_locations(mod)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def compile_flow(fn: Callable[..., Any], *,
                 gate: bool = True) -> CompiledFlow:
    """Compile a generator thread body into continuation form.

    ``gate=False`` skips the live-analysis refusal gate (unit tests of
    the lowering itself); everything real leaves it on.
    """
    if gate:
        _gate(fn)
    module_ast, fn_node = _function_ast(fn)
    compiler = _Compiler(module_ast)
    entry_name, frame_name, params = compiler.compile_function(fn_node)
    if params:
        raise FlowCompileError(
            f"{fn.__qualname__}: a compiled top-level body takes only "
            f"its receiver parameter (extra params {params} — close "
            f"over configuration instead)")
    generated = compiler.module()
    header = (f"# Continuation form of {fn.__qualname__} "
              f"({inspect.getsourcefile(fn)}:"
              f"{fn.__code__.co_firstlineno}), generated by "
              f"repro.flows.compile.\n")
    source = header + ast.unparse(generated)
    ns: Dict[str, Any] = dict(fn.__globals__, _END=_END)
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            ns[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - unfilled cell
            raise FlowCompileError(
                f"{fn.__qualname__}: closure cell {name!r} is empty at "
                f"compile time")
    code = compile(source, f"<compiled-flow {fn.__qualname__}>", "exec")
    exec(code, ns)  # noqa: S102 - the compiler's own codegen output

    # Cross-check the lowering against the analysis' suspend scan: every
    # suspend point must have become exactly one continuation site.
    n_points = len(suspend_points(fn_node))
    top = compiler.lowerings[-1]  # helpers finish (and append) first
    if top.n_suspends != n_points:
        raise FlowCompileError(
            f"internal: lowered {top.n_suspends} suspend sites but the "
            f"suspend scan reports {n_points} — refusing the "
            f"mismatched translation")

    return CompiledFlow(
        qualname=fn.__qualname__,
        path=inspect.getsourcefile(fn) or "?",
        line=fn.__code__.co_firstlineno,
        source=source,
        entry=ns[entry_name],
        frame_factory=ns[frame_name],
        n_states=sum(len(low.states) for low in compiler.lowerings),
        suspend_points=n_points,
    )
