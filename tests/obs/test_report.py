"""The Projections-style report against ground truth: migration counts
in the report must agree *exactly* with the ThreadMigrator's counters
(the ``python -m repro.query report`` CLI is tested with the other
verbs, in ``tests/query/test_cli.py``)."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import build_report, load_trace, render_report

from tests.obs.conftest import run_observed

@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    rt, obs = run_observed()
    path = str(tmp_path_factory.mktemp("trace") / "run.trace")
    obs.dump(path)
    return rt, obs, path


def test_report_migrations_match_migrator_counters(traced_run):
    rt, obs, path = traced_run
    report = build_report(load_trace(path), registry=obs.registry)
    mig = report["migrations"]
    assert mig["completed"] == rt.migrator.migrations_completed
    assert mig["returned"] == rt.migrator.migrations_returned
    assert mig["completed"] > 0
    # Route rows decompose the totals exactly.
    assert sum(r["moves"] for r in mig["routes"]) == mig["completed"]
    assert sum(r["returns"] for r in mig["routes"]) == mig["returned"]
    assert sum(r["bytes"] for r in mig["routes"]) == mig["bytes"]
    # The embedded registry agrees with the trace-derived tables: the
    # observer's finalize runs the report's folds.
    m = report["metrics"]
    counters = m["counters"]
    assert counters["migration.completed"] == mig["completed"]
    assert counters["migration.returned"] == mig["returned"]
    assert counters["migration.bytes"] == mig["bytes"]
    msgs = report["messages"]
    assert m["histograms"]["net.msg_bytes"] == msgs["sizes"]
    assert m["histograms"]["net.latency_ns"] == msgs["latency_ns"]
    assert counters["net.messages"] == msgs["sizes"]["count"] > 0
    assert counters["net.bytes"] == msgs["sizes"]["total"]
    assert type(counters["net.bytes"]) is int
    assert counters["kernel.dispatched"] == sum(report["categories"].values())
    assert counters["kernel.switches"] == report["categories"]["cth.resume"]
    checkpoints = [e for e in load_trace(path) if e["ev"] == "checkpoint"]
    assert counters["checkpoint.writes"] == len(checkpoints) > 0
    assert counters["checkpoint.bytes"] == \
        sum(e["bytes"] for e in checkpoints)


def test_report_utilization_and_messages(traced_run):
    rt, obs, path = traced_run
    report = build_report(load_trace(path), windows=4)
    util = report["utilization"]
    assert util["makespan_ns"] == pytest.approx(rt.makespan_ns)
    assert set(util["per_pe"]) == {str(p.id) for p in rt.cluster.processors}
    for row in util["per_pe"].values():
        assert 0.0 < row["util"] <= 1.0
    timeline = report["imbalance_timeline"]
    assert len(timeline) == 4
    assert all(w["imbalance"] >= 1.0 for w in timeline if w["busy_ns"])
    sent = sum(p.messages_sent for p in rt.cluster.processors)
    assert report["messages"]["sizes"]["count"] == sent
    assert report["messages"]["latency_ns"]["count"] > 0
    assert report["categories"].get("cth.resume", 0) > 0


def test_render_report_is_textual_and_complete(traced_run):
    _, obs, path = traced_run
    text = render_report(build_report(load_trace(path),
                                      registry=obs.registry))
    for needle in ("per-PE utilization", "migrations:", "messages:",
                   "dispatches by category", "metrics registry"):
        assert needle in text


def test_load_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ReproError, match="bad.trace:2"):
        load_trace(str(bad))


def test_load_trace_tolerates_torn_final_line(tmp_path):
    """A SIGKILL mid-append leaves an unterminated tail; loading used to
    blow up on it (regression: failed before the torn-tail fix)."""
    torn = tmp_path / "torn.trace"
    torn.write_text('{"ev": "end", "t": 1.0}\n{"ev": "beg')
    assert load_trace(str(torn)) == [{"ev": "end", "t": 1.0}]


def test_load_trace_torn_tolerance_needs_unterminated_tail(tmp_path):
    # A malformed line that *is* newline-terminated cannot be a torn
    # append — that's corruption, and it must stay a hard error.
    bad = tmp_path / "bad.trace"
    bad.write_text('{"ok": 1}\n{"ev": "beg\n')
    with pytest.raises(ReproError, match="bad.trace:2"):
        load_trace(str(bad))


def test_load_trace_rejects_mid_file_corruption_despite_torn_tail(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"ok": 1}\ngarbage\n{"ev": "beg')
    with pytest.raises(ReproError, match="bad.trace:2"):
        load_trace(str(bad))


def test_load_trace_rejects_non_object_lines(tmp_path):
    """A bare array parses as JSON but crashes every consumer; reject it
    at the loader with the position (regression: build_report used to
    die on AttributeError deep inside instead)."""
    bad = tmp_path / "bad.trace"
    bad.write_text('{"ok": 1}\n[1, 2]\n')
    with pytest.raises(ReproError, match="bad.trace:2.*not a JSON object"):
        load_trace(str(bad))


def test_imbalance_timeline_clamps_out_of_range_timestamps():
    """A negative timestamp must charge window 0, not the *last* window
    via Python negative indexing (regression: failed before the lower
    clamp), and the windows must conserve total busy time exactly."""
    entries = [
        {"ev": "end", "t": 100.0, "busy": {"0": 10.0},
         "clock": {"0": 100.0}},
        {"ev": "end", "t": -5.0, "busy": {"0": 7.0}},
        # Past the makespan (only end/clock times extend it): upper clamp.
        {"ev": "schedule", "t": 250.0, "busy": {"0": 3.0}},
    ]
    timeline = build_report(entries, windows=4)["imbalance_timeline"]
    assert timeline[0]["busy_ns"] == 7.0
    assert timeline[-1]["busy_ns"] == 10.0 + 3.0
    assert sum(w["busy_ns"] for w in timeline) == 20.0


def test_imbalance_windows_conserve_busy_on_real_trace(traced_run):
    _, _, path = traced_run
    entries = load_trace(path)
    total = sum(ns for e in entries
                for ns in e.get("busy", {}).values())
    for windows in (1, 3, 8):
        timeline = build_report(entries,
                                windows=windows)["imbalance_timeline"]
        assert sum(w["busy_ns"] for w in timeline) == pytest.approx(total)


def test_empty_trace_report_is_finite_and_renderable():
    """Zero entries / zero makespan must not produce NaN, a div-by-zero,
    or a render crash (regression sweep for the empty-trace audit)."""
    report = build_report([])
    assert report["events"] == 0
    assert report["utilization"]["makespan_ns"] == 0.0
    assert report["utilization"]["per_pe"] == {}
    assert report["imbalance_timeline"] == []
    assert report["migrations"]["completed"] == 0
    assert report["categories"] == {}
    flat = json.dumps(report)
    assert "NaN" not in flat and "Infinity" not in flat
    assert render_report(report)  # must not raise


def test_report_skips_values_that_do_not_fit_the_schema():
    """Lines ``load_trace`` accepts must get a report, not a traceback:
    non-numeric t/clock/busy/bytes/sent values — NaN and the infinities
    among them — are skipped (never coerced), a foreign PE key sorts
    after the integer ones, a ``migration`` without numeric
    ``src``/``dst`` is not a move, and the report is valid JSON
    (regression: NaN and Infinity were added up and printed)."""
    nan, inf = float("nan"), float("inf")
    entries = [
        {"ev": "end", "t": inf, "clock": {"0": inf, "3": nan},
         "busy": {"0": inf, "3": nan}},
        {"ev": "end", "t": nan, "busy": {"0": -inf}},
        {"ev": "migration", "src": nan, "dst": 1, "bytes": 5},
        {"ev": "migration", "src": 0, "dst": 1, "bytes": inf},
        {"ev": "send", "bytes": nan},
        {"ev": "send", "bytes": inf},
        {"ev": "end", "category": "net.x", "sent": nan, "t": 3.0},
        {"ev": "end", "category": "net.x", "sent": 1.0, "t": inf},
        {"ev": "end", "t": 10.0, "clock": {"0": 10.0, "1": "x"},
         "busy": {"0": 4.0, "1": "x", "10": 1.0, "2": 1.0, "pe-a": 2.0}},
        {"ev": "end", "t": None, "busy": {"0": None, "2": 0.5}},
        {"ev": "end", "t": "late", "busy": {"0": True}},
        {"ev": "end", "busy": [1.0]},
        {"ev": "end", "clock": [99.0]},
        {"ev": "migration", "bytes": 5},
        {"ev": "migration", "src": 0, "bytes": 5},
        {"ev": "migration", "src": "a", "dst": 1, "bytes": 5},
        {"ev": "migration", "src": 0, "dst": 1, "bytes": "big"},
        {"ev": "migration", "src": 0, "dst": 1, "bytes": 7,
         "returned": True},
        {"ev": "send"},
        {"ev": "send", "bytes": "x"},
        {"ev": "send", "bytes": 100},
        {"ev": "end", "category": "net.x", "sent": "x", "t": 3.0},
        {"ev": "end", "category": "net.x", "sent": 1.0},
        {"ev": "end", "category": "net.x", "sent": 1.0, "t": 3.0},
    ]
    report = build_report(entries, windows=2)
    util = report["utilization"]
    assert util["makespan_ns"] == 10.0
    assert list(util["per_pe"]) == ["0", "2", "10", "pe-a"]
    assert [row["busy_ns"] for row in util["per_pe"].values()] == \
        [4.0, 1.5, 1.0, 2.0]
    assert [w["busy_ns"] for w in report["imbalance_timeline"]] == \
        [0.5, 8.0]
    assert report["migrations"] == {
        "completed": 2, "returned": 1, "bytes": 7,
        "routes": [{"src": 0, "dst": 1, "moves": 2, "returns": 1,
                    "bytes": 7}]}
    assert report["messages"]["sizes"]["count"] == 1
    assert report["messages"]["sizes"]["buckets"]["le_64"] == 0
    assert report["messages"]["latency_ns"]["count"] == 1
    assert report["messages"]["latency_ns"]["total"] == 2.0
    json.dumps(report, allow_nan=False)
    assert render_report(report)
