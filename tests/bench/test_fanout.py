"""Figures 11 and 12 map their points over ``repro.exec.map_cells``.

Each point is a cell: the series must equal their cells run through the
in-process :class:`SerialBackend`, leave no process behind, and run
in-process where a fan-out cannot happen (one usable CPU, or inside a
``-j N`` bench worker) without changing a byte.
"""

import multiprocessing
import os
import pathlib

import pytest

import repro.bench.report as report
from repro.balance import GreedyLB, NullLB
from repro.bench.__main__ import main
from repro.bench.figures import bigsim_series, btmz_series
from repro.exec import Cell, LocalPool, SerialBackend
from repro.workloads.btmz import BTMZConfig, run_btmz

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"
CASES = (("A", 8, 4), ("S", 4, 2))


def serially(runner, params_list):
    cells = [Cell(experiment=runner, runner=runner, params=p)
             for p in params_list]
    results = SerialBackend().run(cells, [runner], lambda event, data: None)
    assert all(r.ok for r in results)
    return [r.value for r in results]


@pytest.fixture
def cpus(monkeypatch):
    """Pin the affinity set this process reports to ``n`` CPUs."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda _pid: set(range(n)), raising=False)
    return pin


@pytest.fixture
def pooled(monkeypatch):
    """The cell count of each :meth:`LocalPool.run` this process makes."""
    sizes = []
    run = LocalPool.run

    def spy(self, cells, *args, **kwargs):
        sizes.append(len(cells))
        return run(self, cells, *args, **kwargs)

    monkeypatch.setattr(LocalPool, "run", spy)
    return sizes


def test_btmz_series_equals_its_cells_run_serially(cpus, pooled):
    cpus(2)
    out = btmz_series(CASES, iterations=3)
    assert pooled == [4]
    assert multiprocessing.active_children() == []
    cells = serially("repro.bench.figures:btmz_cell",
                     [{"case": list(case), "iterations": 3,
                       "strategy": strategy}
                      for case in CASES for strategy in ("NullLB",
                                                         "GreedyLB")])
    flat = [res for _, no_lb, with_lb in out for res in (no_lb, with_lb)]
    assert [{k: v for k, v in vars(res).items() if k != "config"}
            for res in flat] == cells
    # ...and the series is what one process running them in order built.
    expected = []
    for case in CASES:
        cfg = BTMZConfig(*case, iterations=3)
        expected.append((cfg.label, run_btmz(cfg, NullLB()),
                         run_btmz(cfg, GreedyLB())))
    assert out == expected


def test_bigsim_series_equals_its_cells_run_serially(cpus, pooled,
                                                     monkeypatch):
    cpus(2)
    monkeypatch.delenv("REPRO_FULL", raising=False)
    procs, series, targets = bigsim_series(host_procs=(4, 8), steps=1)
    assert pooled == [2]
    assert multiprocessing.active_children() == []
    assert (procs, targets) == ([4, 8], 2000)
    assert series == {"time_per_step_ms": serially(
        "repro.bench.figures:bigsim_cell",
        [{"dims": [10, 10, 20], "host_procs": p, "steps": 1}
         for p in (4, 8)])}


def test_one_usable_cpu_runs_the_series_in_process(cpus, pooled):
    cpus(1)
    btmz_series(CASES, iterations=2)
    bigsim_series(host_procs=(4, 8), steps=1)
    assert pooled == []


def test_a_bench_worker_runs_the_series_in_process_to_the_same_bytes(
        cpus, tmp_path, monkeypatch, capsys):
    """A ``-j 2`` worker is daemonic: a pool there would refuse to start,
    so the experiments would fail instead of writing their reports."""
    cpus(2)
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert main(["-j", "2", "fig11", "fig12"]) == 0, capsys.readouterr().out
    assert multiprocessing.active_children() == []
    for name in ("fig11_bigsim.txt", "fig12_btmz.txt"):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes()
