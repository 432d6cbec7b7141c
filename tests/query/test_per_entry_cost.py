"""Structural pins on the trace pipeline's per-entry work (no timing).

The engines do their set-up once per query: expression nodes compile
once whatever the trace length, a group's canonical JSON is computed
once per group, and ``dump`` builds no encoder per entry.  Counting
monkeypatches hold that shape, in the spirit of
``tests/obs/test_overhead.py``'s zero-cost-when-off pin.
"""

import json

import pytest

from repro.kernel import KernelTracer
from repro.query import (Binary, Call, Expr, Field, Literal, Unary,
                         aggregate_entries, filter_entries, timeline_entries)
from repro.query import engines

GROUPS = 7


def synthetic_trace(n):
    return [{"ev": "end" if i % 3 else "send", "t": float(i),
             "category": f"cat{i % GROUPS}", "bytes": i % 11,
             "clock": {"0": float(i)}}
            for i in range(n)]


@pytest.fixture
def compile_calls(monkeypatch):
    """Count ``compile`` calls on every node type; forbid ``evaluate``."""
    calls = []
    for cls in (Literal, Field, Unary, Binary, Call):
        def counted(self, _inner=cls.compile):
            calls.append(type(self).__name__)
            return _inner(self)
        monkeypatch.setattr(cls, "compile", counted)

    def forbidden(self, entry):
        raise AssertionError("an engine called Expr.evaluate per entry")
    monkeypatch.setattr(Expr, "evaluate", forbidden)
    return calls


QUERIES = [
    # (engine call, expression nodes it may compile)
    (lambda es: filter_entries(
        es, "ev == 'end' and not skipped and startswith(category, 'cat')"),
     10),
    (lambda es: aggregate_entries(
        es, "count(), count(bytes > 3), sum(bytes * 2) by category, ev"),
     8),
    (lambda es: timeline_entries(
        es, windows=4, value="bytes + 1", where="ev == 'send'"),
     6),
]


@pytest.mark.parametrize("run, nodes", QUERIES)
def test_expressions_compile_once_per_query(compile_calls, run, nodes):
    run(synthetic_trace(50))
    small = len(compile_calls)
    assert 0 < small <= nodes
    run(synthetic_trace(400))
    assert len(compile_calls) - small == small


def test_group_keys_are_canonicalised_once_per_group(monkeypatch):
    calls = []

    def counted(obj, _inner=engines.canonical_json):
        calls.append(obj)
        return _inner(obj)
    monkeypatch.setattr(engines, "canonical_json", counted)

    entries = synthetic_trace(500)
    result = aggregate_entries(entries, "count() by category")
    assert len(result["rows"]) == GROUPS
    assert len(calls) == GROUPS

    del calls[:]
    result = aggregate_entries(entries, "count(), sum(bytes)")
    assert len(result["rows"]) == 1 and len(calls) == 1

    # Values that cannot key the memo pay per entry, and only they do.
    del calls[:]
    unhashable = [{"category": ["net", i % 2]} for i in range(20)]
    result = aggregate_entries(entries + unhashable, "count() by category")
    assert len(result["rows"]) == GROUPS + 2
    assert len(calls) == GROUPS + len(unhashable)


def test_dump_constructs_no_encoder_per_entry(monkeypatch, tmp_path):
    built = []
    init = json.JSONEncoder.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(json.JSONEncoder, "__init__", counted)

    tracer = KernelTracer()
    tracer.entries.extend(synthetic_trace(300))
    assert tracer.dump(str(tmp_path / "t.jsonl")) == 300
    assert built == []
