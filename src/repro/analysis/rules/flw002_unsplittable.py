"""FLW002 unsplittable: a construct the compiler cannot cut through.

The thread→event compiler (ROADMAP 2) splits a body at every suspend
point into continuation functions — the CPC transformation.  *Generating
events with style* (PAPERS.md) catalogues the constructs that defeat the
split, and this rule flags each one at its exact location:

* a suspend point inside ``with`` or any part of a ``try`` statement —
  the cleanup action, the handlers' reach or the live exception would
  have to survive across continuations — or inside ``match``;
* a bare ``yield`` of a non-directive value — the scheduler protocol
  (``repro.core.scheduler``) only defines cuts at ``"yield"`` /
  ``"suspend"`` / ``("io", ns)`` directives;
* a closure capturing a local that is rebound across a suspend point —
  the rebinding is invisible to the already-materialised cell (CPC's
  ban on ``&local`` escaping across cps calls).

Only *compilation-eligible* functions are checked: thread bodies
(generator, first parameter ``th``/``thread``/``mpi``), functions that
yield scheduler directives themselves, and functions that ``yield
from``-delegate to a suspending callee.  Ordinary generators — text
emitters, ``@contextmanager`` helpers — are none of these and stay
clean no matter what they yield.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.astutil import THREAD_PARAM_NAMES
from repro.analysis.core import Finding, ModuleContext, Rule, Severity, register
from repro.analysis.flow.callgraph import CallGraph, FuncInfo
from repro.analysis.flow.suspends import unsplittable

__all__ = ["Unsplittable"]


def _is_thread_body(func: FuncInfo) -> bool:
    args = func.node.args
    params = args.posonlyargs + args.args
    return bool(params and params[0].arg in THREAD_PARAM_NAMES
                and func.is_generator)


def _eligible(graph: CallGraph, func: FuncInfo) -> bool:
    """Does this function take part in thread→event compilation?"""
    if not func.is_generator:
        return False
    if _is_thread_body(func) or func.directive_yields:
        return True
    # Delegation only makes a function compilation-eligible when the
    # target provably speaks the scheduler protocol; keying on the
    # sound or known suspends bits would drag every generator that
    # yield-from-delegates — reporters, rule check() methods — into
    # the protocol and flag their ordinary yields.
    return any(graph.resolution_protocol(res) for _y, res in func.resolved)


@register
class Unsplittable(Rule):
    """Unsplittable construct spanning a suspend point."""

    id = "FLW002"
    name = "unsplittable"
    severity = Severity.ERROR
    summary = ("a suspend point inside with/try/except/match, a bare "
               "non-directive yield, or a closure capture mutated across "
               "a suspend defeats the thread-to-event split")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        graph = CallGraph.from_context(ctx)
        for func in graph.functions_in(ctx.path):
            if not _eligible(graph, func):
                continue
            for _kind, line, detail in unsplittable(func.node):
                yield self.found(ctx, line, f"{func.qualname}: {detail}")
        for cycle in graph.suspending_cycles():
            names = ", ".join(k.split("::", 1)[1] for k in cycle)
            for key in cycle:
                func = graph.funcs[key]
                if func.path != ctx.path:
                    continue
                yield self.found(
                    ctx, func.line,
                    f"{func.qualname} recurses through a suspending "
                    f"cycle ({names}) — the continuation set cannot be "
                    f"statically enumerated; convert the recursion to "
                    f"a loop over explicit state")
