"""Differential pins: filter/aggregate/timeline over the golden chaos
trace must agree exactly with hand-computed values."""

import pytest

from repro.errors import QueryError
from repro.query import (aggregate_entries, canonical_json,
                         filter_entries, timeline_entries, trace_makespan,
                         window_index)


def test_filter_matches_hand_loop(chaos_trace):
    got = filter_entries(chaos_trace, "ev == 'end' and not skipped")
    want = [e for e in chaos_trace
            if e.get("ev") == "end" and not e.get("skipped")]
    assert got == want
    assert len(got) > 0


def test_filter_startswith_matches_hand_loop(chaos_trace):
    got = filter_entries(chaos_trace, "startswith(category, 'net.')")
    want = [e for e in chaos_trace
            if isinstance(e.get("category"), str)
            and e["category"].startswith("net.")]
    assert got == want
    assert len(got) > 0


def test_filter_arithmetic_matches_hand_loop(chaos_trace):
    got = filter_entries(chaos_trace, "ev == 'send' and bytes / 1024 >= 1")
    want = [e for e in chaos_trace
            if e.get("ev") == "send" and e.get("bytes", 0) >= 1024]
    assert got == want


def test_aggregate_count_sum_by_ev_matches_hand(chaos_trace):
    result = aggregate_entries(chaos_trace, "count(), sum(bytes) by ev")
    assert result["entries"] == len(chaos_trace)
    want = {}
    for e in chaos_trace:
        key = e.get("ev")
        cnt, tot = want.get(key, (0, 0))
        b = e.get("bytes")
        numeric = isinstance(b, (int, float)) and not isinstance(b, bool)
        want[key] = (cnt + 1, tot + (b if numeric else 0))
    got = {row["group"]["ev"]: (row["aggregates"]["count()"],
                                row["aggregates"]["sum(bytes)"])
           for row in result["rows"]}
    assert got == want
    assert len(got) > 1


def test_aggregate_rows_come_out_key_sorted(chaos_trace):
    result = aggregate_entries(chaos_trace, "count() by ev, category")
    keys = [canonical_json([row["group"]["ev"], row["group"]["category"]])
            for row in result["rows"]]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_aggregate_min_max_avg_match_hand(chaos_trace):
    ends = [e for e in chaos_trace if e.get("ev") == "end"]
    result = aggregate_entries(ends, "min(t), max(t), avg(t)")
    (row,) = result["rows"]
    ts = [e["t"] for e in ends]
    assert row["aggregates"]["min(t)"] == min(ts)
    assert row["aggregates"]["max(t)"] == max(ts)
    assert row["aggregates"]["avg(t)"] == pytest.approx(sum(ts) / len(ts))


def test_aggregate_count_with_predicate_argument(chaos_trace):
    result = aggregate_entries(chaos_trace, "count(ev == 'end')")
    (row,) = result["rows"]
    assert row["aggregates"]["count(ev == 'end')"] == \
        sum(1 for e in chaos_trace if e.get("ev") == "end")


def test_aggregate_empty_input_is_one_sane_row():
    result = aggregate_entries([], "count(), sum(bytes), avg(t)")
    assert result == {"entries": 0, "rows": [{
        "group": {},
        "aggregates": {"count()": 0, "sum(bytes)": 0, "avg(t)": None},
    }]}
    # With a by-clause an empty input has no groups, hence no rows.
    assert aggregate_entries([], "count() by ev")["rows"] == []


def test_timeline_conserves_counts_and_sums(chaos_trace):
    result = timeline_entries(chaos_trace, windows=6, value="bytes")
    assert result["makespan_ns"] == trace_makespan(chaos_trace)
    assert len(result["windows"]) == 6
    assert sum(w["count"] for w in result["windows"]) == len(chaos_trace)
    hand_bytes = sum(
        e["bytes"] for e in chaos_trace
        if isinstance(e.get("bytes"), (int, float))
        and not isinstance(e.get("bytes"), bool))
    assert sum(w["sum"] for w in result["windows"]) == \
        pytest.approx(hand_bytes)
    for i, w in enumerate(result["windows"]):
        width = result["makespan_ns"] / 6
        assert w["t0"] == pytest.approx(i * width)
        assert w["t1"] == pytest.approx((i + 1) * width)


def test_timeline_where_clause_matches_filter(chaos_trace):
    where = "ev == 'end' and not skipped"
    result = timeline_entries(chaos_trace, windows=4, where=where)
    assert sum(w["count"] for w in result["windows"]) == \
        len(filter_entries(chaos_trace, where))


def test_timeline_empty_and_invalid():
    assert timeline_entries([], windows=4) == \
        {"makespan_ns": 0.0, "windows": []}
    with pytest.raises(QueryError):
        timeline_entries([], windows=0)


def test_aggregate_groups_are_their_canonical_json():
    """``1``, ``1.0`` and ``true`` are three groups, ``0.0`` and ``-0.0``
    two, every NaN one; containers group by content.  Rows come out in
    canonical-JSON order whatever the trace order."""
    nan = float("nan")
    entries = [{"a": 1}, {"a": 1.0}, {"a": True}, {"a": [1]},
               {"a": {"k": 1}}, {"a": nan}, {"a": 0.0}, {"a": -0.0},
               {"a": [1.0]}, {"a": float("nan")}, {"a": 1}, {"a": True},
               {"a": [1]}, {"a": {"k": 1}}, {"a": "1"}, {}, {"a": None}]
    result = aggregate_entries(entries, "count() by a")
    assert result["entries"] == len(entries)
    rows = [(repr(row["group"]["a"]), row["aggregates"]["count()"])
            for row in result["rows"]]
    assert rows == [("'1'", 1), ("-0.0", 1), ("0.0", 1), ("1.0", 1),
                    ("1", 2), ("nan", 2), ("[1.0]", 1), ("[1]", 2),
                    ("None", 2), ("True", 2), ("{'k': 1}", 2)]
    assert repr(aggregate_entries(entries[::-1], "count() by a")) == \
        repr(result)


def test_aggregate_multi_field_groups_keep_types_apart():
    entries = [{"a": 1, "b": "x"}, {"a": True, "b": "x"},
               {"a": 1, "b": "x"}, {"a": 1.0, "b": "x"}, {"a": 1}]
    result = aggregate_entries(entries, "count(), sum(a) by a, b")
    got = [(repr(r["group"]), r["aggregates"]["count()"],
            repr(r["aggregates"]["sum(a)"])) for r in result["rows"]]
    assert got == [("{'a': 1, 'b': 'x'}", 2, "2"),
                   ("{'a': 1, 'b': None}", 1, "1"),
                   ("{'a': 1.0, 'b': 'x'}", 1, "1.0"),
                   ("{'a': True, 'b': 'x'}", 1, "0")]


# -- entries that do not fit the schema: a result, never a traceback --------

FOREIGN = [
    {"ev": "end", "t": 8.0, "bytes": 3},
    {"ev": "x", "t": None, "bytes": 1},
    {"ev": "x", "t": "late", "bytes": 1},
    {"ev": "x", "t": True, "bytes": 1},
    {"ev": "x", "t": float("nan"), "bytes": 1},
    {"ev": "x", "t": [4.0], "bytes": "many"},
    {"ev": "x", "bytes": None},
    {"ev": "x", "t": 6.0, "bytes": 2},
    {"ev": "x", "t": float("inf"), "bytes": 2},
]


def test_timeline_charges_entries_without_a_numeric_t_to_window_zero():
    result = timeline_entries(FOREIGN, windows=4, value="bytes")
    assert result["makespan_ns"] == 8.0
    assert [w["count"] for w in result["windows"]] == [6, 0, 0, 3]
    assert [w["sum"] for w in result["windows"]] == [4.0, 0.0, 0.0, 7.0]


def test_makespan_skips_values_that_are_not_numbers():
    assert trace_makespan([
        {"clock": {"0": "x", "1": 3.0, "2": None, "3": True}},
        {"clock": [9.0, 10.0]},
        {"clock": 11.0},
        {"ev": "end", "t": "late"},
        {"ev": "end", "t": None},
        {"ev": "end"},
        {"ev": "end", "t": 2.5},
        {"ev": "begin", "t": 50.0},
    ]) == 3.0
    assert trace_makespan([{"ev": "end", "t": None}]) == 0.0
    assert timeline_entries([{"ev": "end", "t": None}], windows=2) == \
        {"makespan_ns": 0.0, "windows": []}


def test_window_index_clamps_both_ends():
    assert window_index(-5.0, 10.0, 4) == 0
    assert window_index(0.0, 10.0, 4) == 0
    assert window_index(39.9, 10.0, 4) == 3
    assert window_index(40.0, 10.0, 4) == 3
    assert window_index(1e9, 10.0, 4) == 3
    assert window_index(5.0, 0.0, 4) == 0
    assert window_index(float("inf"), 10.0, 4) == 3
    for foreign in (None, "12", True, [12.0], float("nan")):
        assert window_index(foreign, 10.0, 4) == 0


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == \
        canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
    assert " " not in canonical_json({"a": [1, 2]})
