"""``Expr.compile`` against the tree-walking interpreter it replaced.

Hypothesis builds expression trees over every operator and builtin
(aggregate calls in scalar position included) and entries over every
JSON shape a trace line can take; the compiled closure must agree with
``treewalk.evaluate`` in value *and type* — ``True`` is not ``1``,
``0`` is not ``0.0``, ``False`` is not ``None`` — and raise exactly when
it raises.  The engines are then held to the same engines driven by the
tree-walk over a recorded ``RunObserver`` trace.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.query import (Binary, Call, Field, Literal, Unary,
                         aggregate_entries, filter_entries, parse,
                         timeline_entries)

from . import treewalk

# Sequence repetition (``'ab' * n``) compounds down a tree, so integers
# are either tiny or too large to be a repeat count at all.
integers = st.one_of(st.integers(-9, 9), st.sampled_from([2**64, -2**64]))
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1.0, 2.5]))
texts = st.one_of(st.sampled_from(["", "end", "net.ampi", "net.", "12",
                                   "2.5", "x", "%d"]),
                  st.text(max_size=4))
scalars = st.one_of(st.none(), st.booleans(), integers, floats, texts)

NAMES = ["ev", "t", "category", "bytes", "busy", "clock", "skipped", "msg"]
SEGMENTS = NAMES + ["0", "1", "7"]

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(SEGMENTS), inner, max_size=3)),
    max_leaves=6)
entries = st.dictionaries(st.sampled_from(NAMES), values, max_size=5)

# ``a.0.1`` cannot be spelled (``0.1`` lexes as a float), so a path
# never carries two digit segments in a row.
fields = st.builds(
    lambda head, tail: Field((head, *tail)),
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(SEGMENTS), max_size=2).filter(
        lambda tail: not (len(tail) == 2 and tail[0].isdigit()
                          and tail[1].isdigit())))
# Literals the language can spell: no NaN/inf (they would unparse to
# the field names ``nan``/``inf``).
literals = st.builds(Literal, st.one_of(
    st.none(), st.booleans(), integers, texts,
    st.floats(allow_nan=False, allow_infinity=False)))

UNARY = ["not", "-"]
BINARY = ["or", "and", "==", "!=", "<", "<=", ">", ">=",
          "+", "-", "*", "/", "%"]
CALLS_1 = ["has", "len", "abs", "int", "float", "sum", "min", "max", "avg",
           "count"]


def _nodes(inner):
    return st.one_of(
        st.builds(Unary, st.sampled_from(UNARY), inner),
        st.builds(Binary, st.sampled_from(BINARY), inner, inner),
        st.builds(lambda name, arg: Call(name, (arg,)),
                  st.sampled_from(CALLS_1), inner),
        st.builds(lambda a, b: Call("startswith", (a, b)), inner, inner),
        st.just(Call("count", ())))


trees = st.recursive(st.one_of(fields, literals), _nodes, max_leaves=8)


def outcome(fn, entry):
    """``("value", type, repr)`` or ``("raises", type)`` — repr tells
    ``0.0`` from ``-0.0`` and equates NaN with NaN, at any depth."""
    try:
        v = fn(entry)
    except Exception as exc:  # noqa: BLE001 - the oracle's raise is the spec
        return ("raises", type(exc))
    return ("value", type(v), repr(v))


@settings(max_examples=400, deadline=None)
@given(trees, st.lists(entries, min_size=1, max_size=4))
def test_compiled_closure_agrees_with_the_tree_walk(tree, batch):
    compiled = tree.compile()
    reparsed = parse(tree.unparse()).compile()
    for entry in batch:
        want = outcome(lambda e: treewalk.evaluate(tree, e), entry)
        assert outcome(compiled, entry) == want
        assert outcome(reparsed, entry) == want
        assert outcome(tree.evaluate, entry) == want


@pytest.mark.parametrize("text, entry, want", [
    ("skipped == true", {"skipped": 1}, True),
    ("has(t) and t", {"t": 0}, 0),
    ("t or 0.0", {"t": 0}, 0.0),
    ("t and 1", {}, None),
    ("t > 1", {}, False),
    ("t + 1", {}, None),
    ("1 / t", {"t": 0}, None),
    ("busy.0", {"busy": [True]}, True),
])
def test_compiled_value_types_are_exact(text, entry, want):
    got = parse(text).compile()(entry)
    assert type(got) is type(want) and got == want
    assert treewalk.evaluate(parse(text), entry) == want


FILTERS = ["ev == 'end' and not skipped",
           "startswith(category, 'net.') and has(sent)",
           "ev == 'send' and bytes / 1024 >= 1",
           "t - sent > 1000 or busy.0 > 0",
           "not has(category)"]
AGGREGATES = ["count(), sum(bytes) by category",
              "count() by ev",
              "min(t), max(t), avg(t) by ev, category",
              "count(skipped), sum(busy.0) by src, dst",
              "count(), avg(bytes)"]
TIMELINES = [{"windows": 16},
             {"windows": 8, "value": "bytes", "where": "ev == 'send'"},
             {"windows": 5, "value": "busy.0 + busy.1",
              "where": "ev == 'end' and not skipped"}]


@pytest.mark.parametrize("query", FILTERS)
def test_filter_equals_tree_walk_filter(chaos_trace, query):
    got = filter_entries(chaos_trace, query)
    assert got == treewalk.filter_entries(chaos_trace, query)
    assert all(a is b for a, b in
               zip(got, treewalk.filter_entries(chaos_trace, query)))


@pytest.mark.parametrize("spec", AGGREGATES)
def test_aggregate_equals_tree_walk_aggregate(chaos_trace, spec):
    got = aggregate_entries(chaos_trace, spec)
    want = treewalk.aggregate_entries(chaos_trace, spec)
    assert got == want
    assert repr(got) == repr(want)  # row order, and 1 vs 1.0 vs True


@pytest.mark.parametrize("kwargs", TIMELINES)
def test_timeline_equals_tree_walk_timeline(chaos_trace, kwargs):
    got = timeline_entries(chaos_trace, **kwargs)
    want = treewalk.timeline_entries(chaos_trace, **kwargs)
    assert repr(got) == repr(want)
    assert got["windows"]
