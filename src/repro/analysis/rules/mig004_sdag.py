"""MIG004 sdag-discipline: SDAG methods speak only When/Overlap/Atomic.

Section 2.4.2: an SDAG entry method expresses a chare's life cycle with
``when``/``overlap``/``atomic`` constructs, which the driver runs as a
state machine (:class:`repro.charm.sdag.SdagDriver`).  The
generator protocol is the construct surface — yielding anything else
(a string, a tuple, a bare ``yield``) is a directive the FSM rejects at
runtime, on the destination processor, possibly long after a migration.
And because everything *between* yields runs as an atomic block on the
processor, a blocking call there (``time.sleep``, a blocking ``recv``,
a lock acquire) stalls every chare on the PE: blocking belongs to
threads, events must return to the scheduler.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis import astutil
from repro.analysis.core import Finding, ModuleContext, Rule, Severity, register

__all__ = ["SdagDiscipline"]

#: Call names that block the calling OS process.
_BLOCKING_NAMES = {"input", "sleep", "time.sleep"}
#: Method names that block when called on runtime/OS objects.
_BLOCKING_ATTRS = {"recv", "acquire"}

_DIRECTIVES = {"When", "Overlap", "Atomic"}


def _yield_problem(value: Optional[ast.expr]) -> Optional[str]:
    """Why a yielded expression is not an SDAG directive (None if OK)."""
    if value is None:
        return "a bare yield"
    if isinstance(value, ast.Call):
        name = astutil.call_name(value).split(".")[-1]
        if name in _DIRECTIVES:
            return None
        return f"a call to {name or 'an expression'}()"
    if isinstance(value, ast.Constant):
        return f"the constant {value.value!r}"
    if isinstance(value, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
        return "a container literal"
    # Names and attribute loads may hold a directive built earlier;
    # static analysis cannot tell, so give them the benefit of the doubt.
    return None


@register
class SdagDiscipline(Rule):
    """SDAG generator methods must yield directives and never block."""

    id = "MIG004"
    name = "sdag-discipline"
    severity = Severity.ERROR
    summary = ("SDAG generator methods may only yield When/Overlap/Atomic "
               "directives, and their atomic sections must not make "
               "blocking calls")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for mc in astutil.migratable_contexts(ctx.tree):
            if mc.kind != "sdag method":
                continue
            assert mc.cls is not None
            where = f"{mc.cls.name}.{mc.func.name}"
            for node in astutil.walk_shallow(mc.func):
                if isinstance(node, ast.Yield):
                    problem = _yield_problem(node.value)
                    if problem is not None:
                        yield self.found(
                            ctx, node,
                            f"SDAG method {where} yields {problem}; the "
                            f"driver accepts only When/Overlap/Atomic "
                            f"directives")
            # Blocking calls anywhere in the method body (including inside
            # Atomic(lambda: ...) thunks) stall the whole processor.
            for node in ast.walk(mc.func):
                if not isinstance(node, ast.Call):
                    continue
                name = astutil.call_name(node)
                is_blocking = name in _BLOCKING_NAMES or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_ATTRS)
                if is_blocking:
                    yield self.found(
                        ctx, node,
                        f"SDAG method {where} calls blocking {name}() "
                        f"inside an atomic section — events must return "
                        f"to the scheduler, only threads may block")
