"""Self-tests for the benchmark harness (``python -m pytest perf/tests``)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERF = os.path.dirname(HERE)
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

END_TO_END = ["wall_s", "setup_s", "peak_rss_mb", "fail_frac",
              "cold_cells_per_s", "dedupe_cells_per_s", "dedupe_p50_ms",
              "trace_on_ratio"]


def run_cli(*argv):
    return subprocess.run([sys.executable, os.path.join(PERF, "run.py"),
                           *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


# -- the declared benchmark matches the harness ----------------------------

def test_benchmark_json_matches_the_harness():
    bench = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = run.load_config()
    end_to_end, per_layer = run.declared_metrics(config)
    assert bench["end_to_end"] == end_to_end
    assert bench["per_layer"] == per_layer
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(config["sizes"]["default"])
    assert names == list(config["sizes"]["check"])
    assert [m["name"] for m in config["end_to_end"]] == END_TO_END
    assert "setup_s" in [m["name"] for m in end_to_end]
    # Every end-to-end metric reaches the driver through one list or the
    # other, whatever its scope or bound.
    assert set(END_TO_END) <= {m["name"] for m in end_to_end + per_layer}


def test_a_machine_twice_as_slow_reads_the_same_reference_seconds():
    config = run.load_config()
    ref = config["calibration_ref_s"]

    def summary(slowdown):
        raw = {"workload": "w", "attempted": 3, "failed": 0, "failures": [],
               "digests": {}, "scoped": {}, "peak_rss_mb": 50.0,
               "walls": [1.0 * slowdown, 1.1 * slowdown, 0.9 * slowdown],
               "calibs": [ref * slowdown] * 3,
               "phases": {"a": [0.4 * slowdown] * 3,
                          "b": [0.6 * slowdown, 0.7 * slowdown,
                                0.5 * slowdown]}}
        setups = {"seconds": [0.3 * slowdown, 0.32 * slowdown],
                  "calibs": [ref * slowdown] * 3}
        return run.summarise(raw, setups, config)

    quiet, slow = summary(1.0), summary(2.0)
    for name in ("wall_s", "setup_s"):
        assert slow["end_to_end"][name] == pytest.approx(
            quiet["end_to_end"][name])
    assert quiet["end_to_end"]["wall_s"]["median"] == pytest.approx(1.0)
    assert slow["per_layer"]["wall_raw_s"] == pytest.approx(2.0)
    assert slow["per_layer"]["setup_raw_s"] == pytest.approx(0.62)
    assert slow["per_layer"]["calib_ms"] == pytest.approx(2e3 * ref)
    # Phases are scaled with their repetition and still add up.
    assert run.check_invariants(slow) == []
    assert slow["per_layer"]["phase.b_s"] == pytest.approx(0.6)


# -- end to end: --check ----------------------------------------------------

def test_check_mode_passes_and_names_every_end_to_end_metric():
    proc = run_cli("--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in END_TO_END:
        assert f"  {name} " in proc.stdout, name
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] > 100


def test_corrupted_pin_fails_the_run(tmp_path):
    pins = run.load_json(run.EXPECTED)
    pins["check"]["flows_drain"]["drain"] = "0" * 16
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(pins))
    proc = run_cli("--check", "--workload", "flows_drain", "--trace", "0",
                   "--expected", str(bad))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is False and final["failed"] >= 1
    assert "FAILED" in proc.stdout and "pinned" in proc.stdout


def test_driver_lines_carry_exactly_the_declared_metrics():
    bench = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_cli("--check", "--workload", "migrate_storm", "--seed",
                       "5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
        assert sorted(final["metrics"]) == sorted(
            m["name"] for m in bench[key])


# -- the span shim, on a synthetic two-layer package ------------------------

@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakesys"
    for layer, body in {
        "low": """
            __all__ = ["leaf", "Box", "gone"]

            def leaf(n):
                return sum(range(n))

            class Box:
                def __init__(self, n):
                    self.n = n

                def work(self):
                    return leaf(self.n)

                def steps(self):
                    yield leaf(self.n)
                    yield leaf(self.n)
            """,
        "high": """
            from fakesys.low import Box, leaf

            __all__ = ["drive"]

            def drive(n):
                box = Box(n)
                return box.work() + leaf(n) + sum(box.steps())
            """,
    }.items():
        (pkg / layer).mkdir(parents=True)
        (pkg / layer / "__init__.py").write_text(textwrap.dedent(body))
    (pkg / "__init__.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakesys"
    for name in [m for m in sys.modules if m.split(".")[0] == "fakesys"]:
        del sys.modules[name]


def test_span_self_times_sum_to_the_root(fake_package):
    ticks = iter(range(10_000))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    shim = spans.Shim(["low", "high"], recorder=recorder,
                      package=fake_package)
    shim.install()
    import fakesys.high
    recorder.begin_root("test")
    value = fakesys.high.drive(10)
    wall = recorder.end_root()
    shim.uninstall()
    assert value == 4 * sum(range(10))
    assert sum(recorder.self_s.values()) == pytest.approx(wall)
    assert set(recorder.self_s) == {"low", "high", spans.HARNESS}
    # drive -> Box.__init__, Box.work, leaf, and three generator
    # resumptions (two yields, then StopIteration) cross into ``low``;
    # leaf inside Box.work and Box.steps does not.
    assert recorder.calls == {"high": 1, "low": 6}
    assert recorder.target_calls["fakesys.low.leaf"] == 4
    # Every span's parent closed after it did.
    by_id = {s[0]: s for s in recorder.spans}
    for sid, parent, _name, _layer, start, end in recorder.spans:
        if parent >= 0:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    # Uninstalled: the original functions are back.
    assert fakesys.high.drive.__name__ == "drive"
    assert not hasattr(fakesys.high.drive, "__wrapped__")


def test_unresolvable_targets_are_reported_not_fatal(fake_package):
    shim = spans.Shim(["low", "high", "ghost"], package=fake_package)
    shim.install()
    shim.uninstall()
    assert "fakesys.ghost" in shim.unresolved          # missing layer
    assert "fakesys.low.gone" in shim.unresolved       # stale __all__ name
    assert "fakesys.vm.AddressSpace.write" in shim.unresolved  # copy probe
    assert "dispatch-bracket" in shim.unresolved       # no kernel package
    # No count has a target in this package: none is reported as 0.
    counts, missing = shim.exact_counts()
    assert counts == {} and missing == list(spans.EXACT_COUNTS)


def test_a_repetition_that_raises_leaves_no_open_span(fake_package):
    ticks = iter(range(10_000))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.begin_root("test")
    recorder.push("low", "a")
    recorder.push("high", "b")      # the exception left both open
    wall = recorder.end_root()
    assert recorder.stack == []
    assert sum(recorder.self_s.values()) == pytest.approx(wall)


# -- compare.py verdicts ------------------------------------------------------

def record(workload, **metrics):
    return {"workloads": {workload: {"end_to_end": {
        name: {"median": v, "q1": v, "q3": v, "n": 1}
        for name, v in metrics.items()}}}}


def rows_by_metric(a_values, b_values, metric="wall_s"):
    rows = compare.compare([record("w", **{metric: v}) for v in a_values],
                           [record("w", **{metric: v}) for v in b_values])
    return {r["metric"]: r for r in rows}


def test_compare_verdicts_on_synthetic_runs():
    tight = [1.00, 1.01, 0.99, 1.00]
    assert rows_by_metric(tight, [1.00, 1.01, 1.00, 0.99]
                          )["wall_s"]["verdict"] == "same"
    assert rows_by_metric(tight, [0.80, 0.81, 0.79, 0.80]
                          )["wall_s"]["verdict"] == "better"
    worse = rows_by_metric(tight, [1.30, 1.31, 1.29, 1.30])["wall_s"]
    bounds = {m["name"]: m["bound"]
              for m in run.load_config()["end_to_end"]}
    assert worse["verdict"] == "worse"
    assert worse["bound"] == bounds["wall_s"] < 0.3
    assert worse["ratio"] == pytest.approx(1.3, rel=0.02)
    # Inside the bound but worse: still "same", never "better".
    assert rows_by_metric(tight, [1.05, 1.06, 1.05, 1.04]
                          )["wall_s"]["verdict"] == "same"
    # Spread wider than the bound, overlapping sets: cannot tell.
    noisy = [1.0, 1.4, 0.8, 1.3]
    assert rows_by_metric(noisy, [1.1, 0.9, 1.35, 1.2]
                          )["wall_s"]["verdict"] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert rows_by_metric(noisy, [0.5, 0.6, 0.55, 0.7]
                          )["wall_s"]["verdict"] == "better"
    # Higher-is-better metrics flip the direction.
    def side(*values):
        return {"values": list(values), "median": values[1], "iqr": 1.0}
    assert compare.verdict(side(199, 200, 201), side(149, 150, 151),
                           "higher", 0.10) == "worse"
    assert compare.verdict(side(199, 200, 201), side(249, 250, 251),
                           "higher", 0.10) == "better"
    # A demoted metric (bound null in config.json) is not judged, a
    # metric scoped to another workload has no row.
    rows = compare.compare(
        [record("serve_chaos", cold_cells_per_s=v) for v in (200, 201, 199)],
        [record("serve_chaos", cold_cells_per_s=v) for v in (150, 151, 149)])
    assert "cold_cells_per_s" not in {r["metric"] for r in rows}
    assert "trace_on_ratio" not in rows_by_metric(tight, tight)
    # fail_frac: any increase is a regression, in a minority of runs
    # too (the worst run decides, not the median); a missing side is
    # unresolved.
    assert rows_by_metric([0.0, 0.0], [0.01, 0.0], metric="fail_frac"
                          )["fail_frac"]["verdict"] == "worse"
    assert rows_by_metric([0.0, 0.0, 0.0], [0.01, 0.0, 0.0],
                          metric="fail_frac"
                          )["fail_frac"]["verdict"] == "worse"
    assert rows_by_metric([0.0, 0.01, 0.0], [0.01, 0.0, 0.0],
                          metric="fail_frac"
                          )["fail_frac"]["verdict"] == "same"
    assert rows_by_metric([0.0, 0.0], [0.0, 0.0], metric="fail_frac"
                          )["wall_s"]["verdict"] == "unresolved"


def test_compare_cli_reads_jsonl_and_flags_regressions(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.json"
    a.write_text("\n".join(json.dumps(record("w", wall_s=v))
                           for v in (1.0, 1.01, 0.99)))
    b.write_text(json.dumps([record("w", wall_s=v)
                             for v in (1.3, 1.31, 1.29)]))
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "wall_s" in out
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a)]) == 2
