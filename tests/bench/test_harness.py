"""Tests for the benchmark harness itself (renderers, builders, CLI)."""

import os

from repro.bench.report import render_series, render_table, save_report
from repro.bench.figures import stack_size_series
from repro.bench.__main__ import EXPERIMENTS, main


def test_render_table_alignment():
    out = render_table(["a", "bbb"], [[1, 2], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    # All data rows have the same width.
    assert len({len(l) for l in lines[2:]}) <= 2


def test_render_series_missing_points():
    out = render_series("x", [1, 2], {"y": [0.5, None]})
    assert "-" in out.splitlines()[-1]
    assert "0.500" in out


def test_save_report_roundtrip(tmp_path, monkeypatch):
    import repro.bench.report as report
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    path = save_report("x.txt", "hello")
    assert os.path.exists(path)
    assert open(path).read() == "hello\n"


def test_stack_size_series_small():
    sizes, series = stack_size_series(sizes=[8192, 16384])
    assert sizes == [8192, 16384]
    assert set(series) == {"stack_copy", "isomalloc", "memory_alias"}
    assert series["stack_copy"][1] > series["stack_copy"][0]


def test_cli_experiment_registry_complete():
    assert set(EXPERIMENTS) == {"table1", "table2"} | {
        f"fig{i}" for i in range(4, 13)} | {
        f"ablation_{x}" for x in ("page_size", "granularity", "swapglobal",
                                  "io", "smp", "bigsim_lb", "pose",
                                  "mechanisms")}


def test_cli_unknown_experiment():
    assert main(["figure99"]) == 2


def test_api_docs_generator(tmp_path, monkeypatch):
    """The API-reference generator runs and covers every package."""
    import runpy
    import sys

    gen = os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                       "gen_api_docs.py")
    mod = runpy.run_path(gen, run_name="not-main")
    monkeypatch.setattr(sys, "argv", ["gen_api_docs.py"])
    out_path = tmp_path / "api.md"
    # Point OUT at the temp dir by patching the module dict copy.
    mod["main"].__globals__["OUT"] = str(out_path)
    assert mod["main"]() == 0
    text = out_path.read_text()
    for pkg in mod["PACKAGES"]:
        assert f"## {pkg}" in text
    assert "CthScheduler" in text and "IsomallocArena" in text
