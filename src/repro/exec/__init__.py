"""repro.exec — the deterministic parallel sweep executor.

Every experiment in this repository is a grid of *independent,
deterministic* cells — (workload, config, seed) for a chaos sweep, one
experiment per cell for the paper figures.  This package fans that grid
out across worker processes without surrendering a single reproducibility
guarantee:

* a :class:`SweepSpec` of plain-data :class:`Cell`\\ s, each with a
  stable ``(experiment, config-hash, seed)`` id;
* :class:`LocalPool` (``multiprocessing``) and :class:`SerialBackend`
  (the ``--jobs 1`` debugging reference) running the *same* cell code;
* a disk :class:`ResultCache` keyed on content hashes;
* crash containment with the chaos retry-once discipline;
* :func:`map_cells`, one runner over a list of params on every usable
  CPU, for a figure series whose points share nothing;
* progress on the kernel :class:`~repro.kernel.HookBus` conventions;
* a merge that orders results by cell id, so output files are
  byte-identical no matter how many workers raced to produce them.

The paper's argument that loosely-coupled flows of control migrate
freely is the same argument that lets these cells scatter across
processes: nothing a cell needs lives anywhere but its spec.
"""

from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.exec.pool import (LocalPool, SerialBackend, backend_from_spec,
                             backend_names, map_cells, run_cell)
from repro.exec.progress import EXEC_CHANNELS, ProgressReporter
from repro.exec.runners import (chaos_result_row, fault_config_params,
                                run_chaos_cell)
from repro.exec.spec import Cell, CellResult, SweepSpec, resolve_runner

__all__ = [
    "Cell", "CellResult", "SweepSpec", "resolve_runner",
    "ResultCache",
    "SerialBackend", "LocalPool", "run_cell", "map_cells",
    "backend_from_spec", "backend_names",
    "EXEC_CHANNELS", "ProgressReporter",
    "SweepExecutor",
    "chaos_result_row", "fault_config_params", "run_chaos_cell",
]
