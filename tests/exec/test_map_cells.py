"""``map_cells``: one runner over a params list, on every usable CPU."""

import os

import pytest

from repro.errors import ReproError
from repro.exec import Cell, LocalPool, SweepExecutor, SweepSpec, map_cells
from repro.exec.pool import usable_cpus

PID = "tests.exec.workers:pid"


@pytest.fixture
def cpus(monkeypatch):
    """Pin the affinity set this process reports to ``n`` CPUs."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda _pid: set(range(n)), raising=False)
    return pin


def test_values_come_back_in_input_order_from_other_processes(cpus):
    cpus(2)
    params = [{"i": i} for i in range(5)]
    values = map_cells(PID, params)
    assert [v["params"] for v in values] == params
    assert os.getpid() not in {v["pid"] for v in values}


@pytest.mark.parametrize("n_cpus, n_cells", [(1, 4), (2, 1)])
def test_one_cpu_or_one_cell_runs_in_process(cpus, n_cpus, n_cells):
    cpus(n_cpus)
    values = map_cells(PID, [{"i": i} for i in range(n_cells)])
    assert {v["pid"] for v in values} == {os.getpid()}


def test_no_cells_is_no_values():
    assert map_cells(PID, []) == []


def test_the_default_pool_size_counts_the_affinity_set(cpus):
    cpus(1)
    assert usable_cpus() == 1 and LocalPool().jobs == 1
    cpus(3)
    assert usable_cpus() == 3 and LocalPool().jobs == 3


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_raising_cell_names_itself_with_the_worker_traceback(cpus, n_cpus):
    cpus(n_cpus)
    with pytest.raises(ReproError) as err:
        map_cells("tests.exec.workers:boom", [{"k": 1}, {"k": 2}])
    text = str(err.value)
    assert "tests.exec.workers:boom {'k': 1} failed" in text
    assert "Traceback (most recent call last)" in text
    assert "ValueError: deterministic failure for seed None" in text


def test_a_pool_worker_maps_its_cells_in_process(cpus):
    """A pool worker is daemonic and may start no process: its cells run
    where it is, instead of failing."""
    cpus(2)
    cell = Cell(experiment="t:nested", runner="tests.exec.workers:nested_pids")
    (result,) = SweepExecutor(SweepSpec("nested", [cell]),
                              backend=LocalPool(jobs=1)).run()
    assert result.ok, result.error
    assert result.value["pid"] != os.getpid()
    assert set(result.value["pids"]) == {result.value["pid"]}

