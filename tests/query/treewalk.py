"""The tree-walking interpreter ``repro.query.expr`` shipped before
``Expr.compile``: one recursive ``evaluate`` per node type, the operator
picked by an ``if`` ladder on every entry.

It is kept here as the differential oracle (the role
``tests/vm/pagemodel.py`` plays for the extent page table): too slow to
ship, simple enough to read as the definition of the language's total
evaluation.  ``test_compile_oracle.py`` holds the compiled closures to
it in value, type and raised exception; the ``*_entries`` functions are
the engines as they were written against it, one ``evaluate`` and one
``canonical_json`` per entry.
"""

from repro.errors import QueryError
from repro.query import (Binary, Call, Field, Literal, Unary, canonical_json,
                         parse, parse_aggregate)
from repro.query.expr import AGGREGATE_NAMES

_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})


def evaluate(node, entry):
    return _EVALUATE[type(node)](node, entry)


def _literal(node, entry):
    return node.value


def _field(node, entry):
    value = entry
    for key in node.path:
        if isinstance(value, dict):
            value = value.get(key)
        elif isinstance(value, (list, tuple)) and key.isdigit():
            idx = int(key)
            value = value[idx] if idx < len(value) else None
        else:
            return None
    return value


def _unary(node, entry):
    v = evaluate(node.operand, entry)
    if node.op == "not":
        return not v
    if v is None:
        return None
    try:
        return -v
    except TypeError:
        return None


def _binary(node, entry):
    op = node.op
    if op == "and":
        left = evaluate(node.left, entry)
        return evaluate(node.right, entry) if left else left
    if op == "or":
        left = evaluate(node.left, entry)
        return left if left else evaluate(node.right, entry)
    left = evaluate(node.left, entry)
    right = evaluate(node.right, entry)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if left is None or right is None:
        return False if op in _COMPARISONS else None
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
    except TypeError:
        return False if op in _COMPARISONS else None
    except ZeroDivisionError:
        return None
    raise QueryError(f"unknown operator {op!r}")


def _call(node, entry):
    name = node.name
    if name in AGGREGATE_NAMES:
        raise QueryError(
            f"aggregate {name}() is only valid in an aggregate spec")
    args = [evaluate(a, entry) for a in node.args]
    if name == "has":
        return args[0] is not None
    if name == "startswith":
        return (isinstance(args[0], str) and isinstance(args[1], str)
                and args[0].startswith(args[1]))
    if args[0] is None:
        return None
    try:
        if name == "len":
            return len(args[0])
        if name == "abs":
            return abs(args[0])
        if name == "int":
            return int(args[0])
        if name == "float":
            return float(args[0])
    except (TypeError, ValueError):
        return None
    raise QueryError(f"unknown function {name!r}")


_EVALUATE = {Literal: _literal, Field: _field, Unary: _unary,
             Binary: _binary, Call: _call}


# ---------------------------------------------------------------------------
# The engines, driven by the tree-walk
# ---------------------------------------------------------------------------


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def filter_entries(entries, query):
    tree = parse(query)
    return [e for e in entries if evaluate(tree, e)]


class _Accumulator:
    def __init__(self, call):
        self.call = call
        self.n = 0
        self.total = 0
        self.lo = None
        self.hi = None

    def add(self, entry):
        name = self.call.name
        if name == "count":
            if not self.call.args or evaluate(self.call.args[0], entry):
                self.n += 1
            return
        value = evaluate(self.call.args[0], entry)
        if not _is_number(value):
            return
        self.n += 1
        self.total += value
        self.lo = value if self.lo is None else min(self.lo, value)
        self.hi = value if self.hi is None else max(self.hi, value)

    def finish(self):
        name = self.call.name
        if name == "count":
            return self.n
        if name == "sum":
            return self.total
        if name == "min":
            return self.lo
        if name == "max":
            return self.hi
        return self.total / self.n if self.n else None


def aggregate_entries(entries, spec):
    spec = parse_aggregate(spec)
    by_names = [f.unparse() for f in spec.by]
    groups = {}
    n_entries = 0
    for e in entries:
        n_entries += 1
        key_values = [evaluate(f, e) for f in spec.by]
        key = canonical_json(key_values)
        cell = groups.get(key)
        if cell is None:
            cell = (key_values, [_Accumulator(a) for a in spec.aggs])
            groups[key] = cell
        for acc in cell[1]:
            acc.add(e)
    if not spec.by and not groups:
        groups[""] = ([], [_Accumulator(a) for a in spec.aggs])
    rows = []
    for key in sorted(groups):
        key_values, accs = groups[key]
        rows.append({
            "group": dict(zip(by_names, key_values)),
            "aggregates": {a.call.unparse(): a.finish() for a in accs},
        })
    return {"rows": rows, "entries": n_entries}


def timeline_entries(entries, windows=8, value=None, where=None):
    """The pre-compile timeline over entries that all carry a numeric
    ``t`` (it had no answer for the others)."""
    where_tree = parse(where) if where is not None else None
    value_tree = parse(value) if value is not None else None
    makespan = 0.0
    for e in entries:
        for t in e.get("clock", {}).values():
            makespan = max(makespan, t)
        if e.get("ev") == "end":
            makespan = max(makespan, e.get("t", 0.0))
    if makespan <= 0:
        return {"makespan_ns": makespan, "windows": []}
    width = makespan / windows
    counts = [0] * windows
    sums = [0.0] * windows
    for e in entries:
        if where_tree is not None and not evaluate(where_tree, e):
            continue
        t = e.get("t", 0.0)
        w = 0 if t <= 0 else min(int(t / width), windows - 1)
        counts[w] += 1
        if value_tree is not None:
            v = evaluate(value_tree, e)
            if _is_number(v):
                sums[w] += v
    out = []
    for w in range(windows):
        row = {"t0": w * width, "t1": (w + 1) * width, "count": counts[w]}
        if value_tree is not None:
            row["sum"] = sums[w]
        out.append(row)
    return {"makespan_ns": makespan, "windows": out}
