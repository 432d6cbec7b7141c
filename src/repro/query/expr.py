"""Expression AST for trace queries: compilation and exact unparsing.

Nodes are small ``__slots__`` value objects with structural equality.
Three properties drive the design:

* **Compile once, run per entry** — :meth:`Expr.compile` translates a
  tree into nested closures: operators and builtins are resolved while
  compiling, literal operands are captured by value, so the per-entry
  work is the closure calls and nothing else.  The engines compile each
  expression once per query; :meth:`Expr.evaluate` is the one-shot
  convenience (``compile()(entry)``).
* **Total evaluation** — a compiled expression never raises on trace
  data.  A missing field is ``None``; arithmetic with ``None`` or
  mismatched types is ``None``; an ordering comparison on incomparable
  values is ``False``.  Queries over heterogeneous JSONL entries (the
  kernel trace mixes ``schedule``/``end``/``send``/``migration``
  schemas) therefore filter instead of crashing.
* **Round-trip unparsing** — :meth:`Expr.unparse` emits canonical text
  with minimal precedence parentheses such that
  ``parse(unparse(tree)) == tree`` (the parser property tests pin this
  as a fixed point).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Tuple

from repro.errors import QueryError

__all__ = ["Expr", "Literal", "Field", "Unary", "Binary", "Call",
           "AGGREGATE_NAMES", "BUILTIN_NAMES"]

#: Aggregation functions — only valid in ``aggregate`` specs.
AGGREGATE_NAMES = frozenset({"count", "sum", "min", "max", "avg"})

#: Scalar builtins callable inside any expression.
BUILTIN_NAMES = frozenset({"has", "len", "abs", "int", "float",
                           "startswith"})

#: Binding strength, loosest to tightest; parenthesization in
#: :meth:`Expr.unparse` compares these.
_PREC = {"or": 1, "and": 2, "not": 3,
         "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
         "+": 5, "-": 5, "*": 6, "/": 6, "%": 6, "neg": 7}

_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})

_ORDERINGS = {"<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "%": operator.mod}

#: Builtins that map ``None`` to ``None`` and a bad argument to ``None``.
_CONVERSIONS = {"len": len, "abs": abs, "int": int, "float": float}

Entry = Dict[str, Any]
Compiled = Callable[[Entry], Any]


class Expr:
    """Base expression node; subclasses implement compile/unparse."""

    __slots__ = ()
    prec = 8  # atoms bind tightest

    def compile(self) -> Compiled:
        """Translate this tree into an ``entry -> value`` closure."""
        raise NotImplementedError

    def evaluate(self, entry: Entry) -> Any:
        """Value of this expression on one entry (compiles each call:
        to scan a trace, :meth:`compile` once and call the closure)."""
        return self.compile()(entry)

    def unparse(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (type(self) is type(other)
                and all(getattr(self, s) == getattr(other, s)
                        for s in self.__slots__))

    def __hash__(self) -> int:
        return hash((type(self).__name__,
                     tuple(repr(getattr(self, s)) for s in self.__slots__)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.unparse()!r}>"

    def _operand(self, child: "Expr", tight: bool = False) -> str:
        """Unparse ``child`` as an operand, parenthesizing when its
        binding is too loose (or equal, for right operands of
        left-associative operators)."""
        text = child.unparse()
        if child.prec < self.prec or (tight and child.prec == self.prec):
            return f"({text})"
        return text


class Literal(Expr):
    """A number, string, ``true``/``false``, or ``none``."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self) -> Compiled:
        value = self.value
        return lambda entry: value

    def unparse(self) -> str:
        v = self.value
        if v is None:
            return "none"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, str):
            escaped = v.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return repr(v)


class Field(Expr):
    """Dotted access into an entry: ``category``, ``busy.0``, ``clock.1``.

    Missing keys and non-indexable intermediates evaluate to ``None``;
    an all-digit segment also tries list indexing, so traces that carry
    arrays stay reachable.
    """

    __slots__ = ("path",)

    def __init__(self, path: Tuple[str, ...]) -> None:
        self.path = tuple(path)

    def compile(self) -> Compiled:
        if len(self.path) == 1:
            (key,) = self.path
            return lambda entry: entry.get(key)
        steps = tuple((key, int(key) if key.isdigit() else None)
                      for key in self.path)

        def walk(entry: Entry) -> Any:
            value: Any = entry
            for key, idx in steps:
                if isinstance(value, dict):
                    value = value.get(key)
                elif idx is not None and isinstance(value, (list, tuple)):
                    value = value[idx] if idx < len(value) else None
                else:
                    return None
            return value
        return walk

    def unparse(self) -> str:
        return ".".join(self.path)


class Unary(Expr):
    """``not x`` or ``-x``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand

    @property
    def prec(self) -> int:  # type: ignore[override]
        return _PREC["not" if self.op == "not" else "neg"]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        if self.op == "not":
            return lambda entry: not operand(entry)

        def negate(entry: Entry) -> Any:
            v = operand(entry)
            if v is None:
                return None
            try:
                return -v
            except TypeError:
                return None
        return negate

    def unparse(self) -> str:
        inner = self._operand(self.operand)
        return f"not {inner}" if self.op == "not" else f"-{inner}"


class Binary(Expr):
    """Left-associative binary operation (boolean, comparison, arithmetic)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    @property
    def prec(self) -> int:  # type: ignore[override]
        return _PREC[self.op]

    def compile(self) -> Compiled:
        op = self.op
        left = self.left.compile()
        right = self.right.compile()
        if op == "and":
            def conj(entry: Entry) -> Any:
                v = left(entry)
                return right(entry) if v else v
            return conj
        if op == "or":
            def disj(entry: Entry) -> Any:
                v = left(entry)
                return v if v else right(entry)
            return disj
        if op == "==":
            # The common shape, ``field == 'literal'``: capture the value
            # and skip the right-hand call.
            if isinstance(self.right, Literal):
                want = self.right.value
                return lambda entry: left(entry) == want
            return lambda entry: left(entry) == right(entry)
        if op == "!=":
            return lambda entry: left(entry) != right(entry)
        # Ordering and arithmetic have no sensible answer against a
        # missing field or a mismatched type: comparisons are False (the
        # entry simply does not match), arithmetic propagates the hole.
        if op in _ORDERINGS:
            fn, hole = _ORDERINGS[op], False
        elif op in _ARITHMETIC:
            fn, hole = _ARITHMETIC[op], None
        else:  # pragma: no cover
            raise QueryError(f"unknown operator {op!r}")

        def apply(entry: Entry) -> Any:
            a = left(entry)
            b = right(entry)
            if a is None or b is None:
                return hole
            try:
                return fn(a, b)
            except TypeError:
                return hole
            except ZeroDivisionError:
                return None
        return apply

    def unparse(self) -> str:
        # Comparisons do not chain in the grammar, so a comparison
        # operand of a comparison always needs explicit parentheses.
        tight_left = self.op in _COMPARISONS
        left = self._operand(self.left, tight=tight_left and
                             self.left.prec == self.prec)
        right = self._operand(self.right, tight=True)
        return f"{left} {self.op} {right}"


class Call(Expr):
    """A function call: scalar builtins anywhere, aggregates in specs.

    An aggregate call compiles to a closure that raises
    :class:`QueryError` when run as a scalar — the aggregate engine
    interprets those nodes itself and compiles only their arguments.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Expr, ...]) -> None:
        self.name = name
        self.args = tuple(args)

    def compile(self) -> Compiled:
        name = self.name
        if name in AGGREGATE_NAMES:
            def refuse(entry: Entry) -> Any:
                raise QueryError(
                    f"aggregate {name}() is only valid in an aggregate spec")
            return refuse
        args = [a.compile() for a in self.args]
        first = args[0]
        if name == "has":
            return lambda entry: first(entry) is not None
        if name == "startswith":
            second = args[1]

            def startswith(entry: Entry) -> bool:
                s = first(entry)
                prefix = second(entry)
                return (isinstance(s, str) and isinstance(prefix, str)
                        and s.startswith(prefix))
            return startswith
        if name not in _CONVERSIONS:  # pragma: no cover
            raise QueryError(f"unknown function {name!r}")
        fn = _CONVERSIONS[name]

        def convert(entry: Entry) -> Any:
            v = first(entry)
            if v is None:
                return None
            try:
                return fn(v)
            except (TypeError, ValueError):
                return None
        return convert

    def unparse(self) -> str:
        return f"{self.name}({', '.join(a.unparse() for a in self.args)})"
