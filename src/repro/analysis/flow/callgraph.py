"""Module-set call graph with fixed-point *suspends* inference.

The CPC compiler's key interprocedural pass decides which functions are
"cps" — able to suspend the flow of control — by propagating the
attribute up the call graph (Kerneis & Chroboczek, PAPERS.md).  The
analogue here: a function **suspends** when

* its own body yields (a scheduler directive, or any value at all —
  either way the generator hands control back to the scheduler), or
* it ``yield from``-delegates to a suspending callee.

Suspension propagates *only* through ``yield from``: a plain call to a
generator function just builds a generator object and discards it — the
silent-no-op bug class FLW001 exists to catch — so plain call edges do
not carry the attribute.

Resolution is name-based and sound: a delegation target that cannot be
resolved (higher-order values, attribute chains on unknown objects) is
**assumed suspending**.  Two fixed points are computed — one seeding
unknowns as suspending (*sound*), one as not (*known*) — and a function
suspending soundly but not knownly is flagged ``assumed``, which is what
the compilability report surfaces as OPAQUE.

Calls on the conventional runtime receivers (``mpi.recv(...)``,
``comm.barrier(...)``, ``th.charge(...)``) resolve against
:func:`runtime_interface`, a parsed snapshot of the AMPI/thread runtime
classes mapping each method to its inferred suspends bit.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.analysis.astutil import FuncDef, call_name, walk_shallow
from repro.analysis.flow.suspends import classify_yield

__all__ = [
    "CallGraph",
    "FuncInfo",
    "Resolution",
    "runtime_interface",
]

#: Conventional receiver variable name -> runtime class it holds.
#: ``mpi`` is the AmpiContext handed to rank mains, ``ctx`` its name
#: inside the runtime itself, ``comm``/``world`` are Communicators, and
#: ``th``/``thread`` the UThread handle of a plain thread body.
KNOWN_RECEIVERS = {
    "mpi": "AmpiContext",
    "ctx": "AmpiContext",
    "comm": "Communicator",
    "world": "Communicator",
    "th": "UThread",
    "thread": "UThread",
}

#: The runtime modules whose classes form the suspend interface.
RUNTIME_MODULES = (
    "repro.ampi.context",
    "repro.ampi.communicator",
    "repro.core.thread",
)

#: The classes exported by those modules that bodies hold receivers to.
RUNTIME_CLASSES = ("AmpiContext", "Communicator", "UThread")


@dataclass(frozen=True)
class Resolution:
    """Where one call/delegation target resolved to.

    *kind* is ``"func"`` (a function in the graph, ``key`` set),
    ``"interface"`` (a runtime class method, ``suspends`` set), or
    ``"unknown"`` (unresolvable; soundly assumed suspending).
    """

    kind: str
    label: str
    key: Optional[str] = None
    suspends: Optional[bool] = None


@dataclass
class FuncInfo:
    """One function in the graph, keyed ``"path::qualname"``."""

    key: str
    path: str
    qualname: str
    name: str
    line: int
    node: FuncDef
    #: Simple name of the directly enclosing class, if this is a method.
    cls: Optional[str]
    #: Key of the lexically enclosing function, if nested.
    parent: Optional[str]
    #: Nested defs bound in this function's local scope: name -> key.
    children: Dict[str, str] = field(default_factory=dict)
    is_generator: bool = False
    #: (line, directive) for each recognised scheduler-directive yield.
    directive_yields: List[Tuple[int, str]] = field(default_factory=list)
    #: Lines of bare (non-directive, non-delegating) yields.
    bare_yields: List[int] = field(default_factory=list)
    #: The raw ``yield from`` nodes, resolved at finalize().
    delegations: List[ast.YieldFrom] = field(default_factory=list)
    resolved: List[Tuple[ast.YieldFrom, Resolution]] = \
        field(default_factory=list)
    #: Sound suspends bit (unknown callees assumed suspending).
    suspends: bool = False
    #: Suspends bit provable without the unknown-callee assumption.
    known: bool = False
    #: suspends and not known: the bit rests on an unresolved callee.
    assumed: bool = False
    #: Provably part of the *scheduler protocol*: yields a directive
    #: itself or delegates (transitively) to an interface primitive.
    #: Narrower than ``known`` — a generator of plain values (a report
    #: emitter, a rule's check()) is known-suspending in the
    #: lost-stream sense but does not speak the protocol.
    protocol: bool = False
    #: Human-readable one-line justification of the suspends bit.
    why: str = ""


@dataclass
class _ModuleScope:
    path: str
    dotted: str
    #: Module-level function defs: name -> key.
    top: Dict[str, str] = field(default_factory=dict)
    #: ``from X import Y [as Z]``: local name -> (dotted module, orig).
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _dotted_name(path: str) -> str:
    """``src/repro/workloads/stencil.py`` -> ``repro.workloads.stencil``."""
    p = path.replace("\\", "/")
    if p.endswith(".py"):
        p = p[:-3]
    parts = [seg for seg in p.split("/") if seg]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class CallGraph:
    """Functions of a module set, their delegation edges, suspends bits."""

    def __init__(self, interface: Optional[Dict[str, Dict[str, bool]]]
                 = None) -> None:
        #: class name -> {method name -> suspends?}; None means "use the
        #: parsed runtime interface" (the common case).
        self.interface = (runtime_interface() if interface is None
                          else interface)
        self.funcs: Dict[str, FuncInfo] = {}
        self._modules: Dict[str, _ModuleScope] = {}
        self._by_dotted: Dict[str, str] = {}
        #: class simple name -> {method -> key}; first definition wins.
        self._class_index: Dict[str, Dict[str, str]] = {}
        self._finalized = False

    # -- construction --------------------------------------------------

    @classmethod
    def from_paths(cls, paths, *, relative_to: Optional[str] = None,
                   interface=None) -> "CallGraph":
        """Parse ``.py`` files (or trees of them) into one graph."""
        import os
        from repro.analysis.core import collect_files
        graph = cls(interface=interface)
        for path in collect_files(paths):
            rel = (os.path.relpath(path, relative_to) if relative_to
                   else path).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue  # the MIG000 parse-error finding owns this case
            graph.add_module(rel, tree)
        graph.finalize()
        return graph

    @classmethod
    def from_context(cls, ctx) -> "CallGraph":
        """Single-module graph for a rule, cached on the ModuleContext."""
        cached = getattr(ctx, "_flow_callgraph", None)
        if cached is not None:
            return cached
        graph = cls()
        graph.add_module(ctx.path, ctx.tree)
        graph.finalize()
        ctx._flow_callgraph = graph
        return graph

    def add_module(self, path: str, tree: ast.Module) -> None:
        if self._finalized:
            raise RuntimeError("CallGraph already finalized")
        module = _ModuleScope(path=path, dotted=_dotted_name(path))
        self._modules[path] = module
        if module.dotted:
            self._by_dotted.setdefault(module.dotted, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = \
                        (node.module, alias.name)
        self._walk(tree.body, module, parent=None, cls_name=None, prefix="")

    def _walk(self, stmts, module: _ModuleScope, parent: Optional[str],
              cls_name: Optional[str], prefix: str) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_func(stmt, module, parent, cls_name, prefix)
            elif isinstance(stmt, ast.ClassDef):
                self._walk(stmt.body, module, parent,
                           cls_name=stmt.name,
                           prefix=f"{prefix}{stmt.name}.")
            else:
                # Defs under module/function-level if/try/with/loops
                # still bind in the enclosing scope.
                for sub in (getattr(stmt, "body", []),
                            getattr(stmt, "orelse", []),
                            getattr(stmt, "finalbody", [])):
                    if sub and isinstance(sub[0], ast.stmt):
                        self._walk(sub, module, parent, cls_name, prefix)
                for handler in getattr(stmt, "handlers", []):
                    self._walk(handler.body, module, parent,
                               cls_name, prefix)

    def _add_func(self, node: FuncDef, module: _ModuleScope,
                  parent: Optional[str], cls_name: Optional[str],
                  prefix: str) -> None:
        qual = f"{prefix}{node.name}"
        key = f"{module.path}::{qual}"
        info = FuncInfo(key=key, path=module.path, qualname=qual,
                        name=node.name, line=node.lineno, node=node,
                        cls=cls_name, parent=parent)
        for y in walk_shallow(node):
            if isinstance(y, ast.YieldFrom):
                info.delegations.append(y)
            elif isinstance(y, ast.Yield):
                kind, directive = classify_yield(y)
                if kind == "directive":
                    info.directive_yields.append((y.lineno, directive))
                else:
                    info.bare_yields.append(y.lineno)
        info.is_generator = bool(info.delegations or info.directive_yields
                                 or info.bare_yields)
        self.funcs[key] = info
        if parent is not None:
            self.funcs[parent].children.setdefault(node.name, key)
        elif cls_name is not None:
            self._class_index.setdefault(cls_name, {}) \
                .setdefault(node.name, key)
        else:
            module.top.setdefault(node.name, key)
        self._walk(node.body, module, parent=key, cls_name=None,
                   prefix=f"{qual}.")

    # -- resolution ----------------------------------------------------

    def _resolve_bare(self, name: str, within: FuncInfo) \
            -> Optional[FuncInfo]:
        node: Optional[FuncInfo] = within
        while node is not None:
            child = node.children.get(name)
            if child is not None:
                return self.funcs[child]
            node = self.funcs.get(node.parent) if node.parent else None
        module = self._modules.get(within.path)
        if module is None:
            return None
        if name in module.top:
            return self.funcs[module.top[name]]
        if name in module.imports:
            dotted, orig = module.imports[name]
            target = self._by_dotted.get(dotted)
            if target is not None:
                tkey = self._modules[target].top.get(orig)
                if tkey is not None:
                    return self.funcs[tkey]
        return None

    def _resolve_method(self, cls: str, meth: str, label: str) -> Resolution:
        methods = self._class_index.get(cls)
        if methods and meth in methods:
            return Resolution(kind="func", label=label, key=methods[meth])
        iface = self.interface.get(cls)
        if iface is not None and meth in iface:
            return Resolution(kind="interface", label=f"{cls}.{meth}",
                              suspends=iface[meth])
        return Resolution(kind="unknown", label=label)

    def resolve_call(self, call: ast.Call, within: FuncInfo) -> Resolution:
        """Resolve one call's target from inside ``within``'s scope."""
        name = call_name(call)
        if not name:
            return Resolution(kind="unknown", label="<expr>")
        if "." not in name:
            target = self._resolve_bare(name, within)
            if target is not None:
                return Resolution(kind="func", label=name, key=target.key)
            return Resolution(kind="unknown", label=name)
        receiver, meth = name.split(".", 1)
        if receiver == "self" and within.cls is not None:
            return self._resolve_method(within.cls, meth, name)
        if receiver in KNOWN_RECEIVERS:
            return self._resolve_method(KNOWN_RECEIVERS[receiver],
                                        meth, name)
        return Resolution(kind="unknown", label=name)

    def resolution_suspends(self, res: Resolution) -> Tuple[bool, bool]:
        """``(sound, known)`` suspends bits of a resolution target."""
        if res.kind == "func":
            f = self.funcs[res.key]
            return f.suspends, f.known
        if res.kind == "interface":
            return bool(res.suspends), bool(res.suspends)
        return True, False  # unknown: soundly assumed suspending

    def resolution_protocol(self, res: Resolution) -> bool:
        """Is the target provably a scheduler-protocol participant?"""
        if res.kind == "func":
            return self.funcs[res.key].protocol
        if res.kind == "interface":
            return bool(res.suspends)
        return False

    # -- inference -----------------------------------------------------

    def finalize(self) -> "CallGraph":
        """Resolve every delegation and run both suspends fixed points."""
        if self._finalized:
            return self
        self._finalized = True
        for f in self.funcs.values():
            for y in f.delegations:
                if isinstance(y.value, ast.Call):
                    res = self.resolve_call(y.value, f)
                else:
                    res = Resolution(kind="unknown", label="<expr>")
                f.resolved.append((y, res))
        # Seeds: own yields make a generator; its directive stream is
        # real either way, so any yield at all sets both bits.
        for f in self.funcs.values():
            if f.directive_yields:
                f.known = f.suspends = True
                line, directive = f.directive_yields[0]
                f.why = f'yields "{directive}" at line {line}'
            elif f.bare_yields:
                f.known = f.suspends = True
                f.why = f"bare yield at line {f.bare_yields[0]}"
            for y, res in f.resolved:
                if res.kind == "interface" and res.suspends:
                    f.known = f.suspends = True
                    f.why = f.why or (f"delegates to suspending "
                                      f"{res.label} at line {y.lineno}")
                elif res.kind == "unknown" and not f.suspends:
                    f.suspends = True
                    f.why = (f"delegates to unresolved {res.label!r} at "
                             f"line {y.lineno} — assumed suspending")
        # Fixed points over resolved func->func delegation edges.
        for attr in ("known", "suspends"):
            changed = True
            while changed:
                changed = False
                for f in self.funcs.values():
                    if getattr(f, attr):
                        continue
                    for y, res in f.resolved:
                        if res.kind != "func":
                            continue
                        g = self.funcs[res.key]
                        if getattr(g, attr):
                            setattr(f, attr, True)
                            if attr == "suspends":
                                f.why = (f"delegates to suspending "
                                         f"{g.qualname} at line {y.lineno}")
                            changed = True
                            break
        # Third fixed point: protocol membership (directive-suspending).
        for f in self.funcs.values():
            f.protocol = bool(f.directive_yields) or any(
                res.kind == "interface" and res.suspends
                for _y, res in f.resolved)
        changed = True
        while changed:
            changed = False
            for f in self.funcs.values():
                if f.protocol:
                    continue
                if any(res.kind == "func"
                       and self.funcs[res.key].protocol
                       for _y, res in f.resolved):
                    f.protocol = True
                    changed = True
        for f in self.funcs.values():
            f.assumed = f.suspends and not f.known
        return self

    # -- queries -------------------------------------------------------

    def functions_in(self, path: str) -> List[FuncInfo]:
        return sorted((f for f in self.funcs.values() if f.path == path),
                      key=lambda f: (f.line, f.qualname))

    def lookup(self, path: str, qualname: str) -> Optional[FuncInfo]:
        return self.funcs.get(f"{path}::{qualname}")

    def suspending_cycles(self) -> List[Tuple[str, ...]]:
        """SCCs of the delegation graph that both loop and suspend.

        A thread body recursing through a suspending cycle cannot be
        split into a finite set of continuations, so each cycle is a
        compilation blocker for every body that reaches it.
        """
        edges: Dict[str, List[str]] = {k: [] for k in self.funcs}
        for f in self.funcs.values():
            for _y, res in f.resolved:
                if res.kind == "func":
                    edges[f.key].append(res.key)
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(edges[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(edges[w])))
                        advanced = True
                        break
                    if on_stack.get(w):
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc.append(w)
                        if w == v:
                            break
                    sccs.append(scc)

        for key in sorted(edges):
            if key not in index:
                strongconnect(key)
        out: List[Tuple[str, ...]] = []
        for scc in sccs:
            looping = len(scc) > 1 or scc[0] in edges[scc[0]]
            if looping and any(self.funcs[k].suspends for k in scc):
                out.append(tuple(sorted(scc)))
        return sorted(out)


@lru_cache(maxsize=1)
def runtime_interface() -> Dict[str, Dict[str, bool]]:
    """Parse the AMPI/thread runtime into ``{class: {method: suspends}}``.

    Reads the installed source of :data:`RUNTIME_MODULES` (no import
    executed — ``find_spec`` only), builds a private :class:`CallGraph`
    over just those modules, and extracts the inferred suspends bit for
    every directly defined method of :data:`RUNTIME_CLASSES`.  If the
    runtime cannot be located the interface is empty and every receiver
    call resolves unknown — degraded but still sound.
    """
    graph = CallGraph(interface={})
    for modname in RUNTIME_MODULES:
        try:
            spec = importlib.util.find_spec(modname)
        except (ImportError, ValueError):  # pragma: no cover - env-specific
            spec = None
        if spec is None or not spec.origin:  # pragma: no cover
            continue
        try:
            with open(spec.origin, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=spec.origin)
        except (OSError, SyntaxError):  # pragma: no cover - env-specific
            continue
        graph.add_module(modname.replace(".", "/") + ".py", tree)
    graph.finalize()
    out: Dict[str, Dict[str, bool]] = {}
    for f in graph.funcs.values():
        if f.cls in RUNTIME_CLASSES and f.parent is None:
            out.setdefault(f.cls, {})[f.name] = f.suspends
    return out
