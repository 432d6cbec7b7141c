"""Sweep backends: where cells actually run.

Two interchangeable backends share one contract — ``run(cells,
warmup_runners, notify, on_result=None) -> [CellResult]`` aligned with
the input order (``on_result(cell, result)`` fires the moment each
cell's result is final, so callers like the
:class:`~repro.exec.cache.ResultCache` can persist incrementally — a
killed sweep keeps every cell it finished):

* :class:`SerialBackend` executes cells in-process, in order.  It is the
  debugging reference: ``--jobs 1`` goes through it, and a parallel run
  must merge to byte-identical results.
* :class:`LocalPool` fans cells out over ``jobs`` worker processes
  (default: one per CPU this process may run on, :func:`usable_cpus`),
  each warmed up (the sweep's runner modules imported) before its first
  cell and each on a pipe of its own.  The parent hands a worker one
  cell at a time and waits on every pipe and process sentinel at once,
  so a worker that *dies* (hard crash, not a Python exception) is seen
  at once, even mid-message, holding a known cell: that cell is retried
  once on another worker, then marked ``error`` — the chaos retry-once
  discipline applied to the harness itself.  Workers share no lock,
  queue or pipe, so no death can block another worker.  Idle workers
  are stopped and joined at the end; if the sweep raised (``Ctrl-C``),
  those still holding a cell are terminated.

Python exceptions inside a runner are *not* retried: cells are
deterministic, so a raising cell would raise again; the worker catches
the exception and returns an ``error`` result with the full traceback.
Both backends take this exact path, which is what keeps serial and
parallel output byte-identical even for failing cells.  A value the
pipe cannot pickle is the pool's one extra failure: it comes back as
that cell's ``error`` with the pickling traceback, also not retried.

:func:`map_cells` is the small road over the same backends: a list of
params through one runner, values back in input order, fanned out when
there is more than one cell and more than one CPU to put them on.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.exec.spec import Cell, CellResult, resolve_runner

__all__ = ["SerialBackend", "LocalPool", "run_cell", "map_cells",
           "backend_from_spec", "backend_names"]

#: notify callback: ``notify(event, payload_dict)``.
Notify = Callable[[str, dict], None]

#: per-result callback: ``on_result(cell, result)`` as each cell lands.
OnResult = Optional[Callable[[Cell, CellResult], None]]


def run_cell(cell: Cell) -> dict:
    """Execute one cell and reduce it to a plain result dict.

    This is the single execution path for both backends (the worker loop
    calls it in a child process, :class:`SerialBackend` in the parent),
    so a cell cannot behave differently under ``--jobs 1``.  A raising
    runner becomes ``status="error"`` with the traceback; the payload is
    always plain data, safe to ship over a pipe.
    """
    # duration_s is host-side diagnostics about the run, not part of
    # the result value; cells themselves stay pure in (params, seed).
    t0 = time.perf_counter()
    try:
        fn = resolve_runner(cell.runner)
        value = fn(dict(cell.params), cell.seed)
        return {"status": "ok", "value": value, "error": "",
                "duration_s": time.perf_counter() - t0}
    except Exception:  # noqa: BLE001 - containment is the whole point
        return {"status": "error", "value": None,
                "error": traceback.format_exc(),
                "duration_s": time.perf_counter() - t0}


def cell_result(cell: Cell, raw: dict, attempts: int = 1) -> CellResult:
    """The :class:`CellResult` for one :func:`run_cell` dict."""
    return CellResult(cell_id=cell.cell_id, status=raw["status"],
                      value=raw["value"], error=raw["error"],
                      attempts=attempts, duration_s=raw["duration_s"])


def done_payload(result: CellResult) -> dict:
    """The ``exec.cell.done`` payload: the one spelling of a finished
    cell, fresh or served from cache."""
    return {"cell_id": result.cell_id, "status": result.status,
            "duration_s": result.duration_s, "attempts": result.attempts,
            "cached": result.cached}


class SerialBackend:
    """Run every cell in the calling process, in submission order."""

    jobs = 1

    def run(self, cells: Sequence[Cell], warmup_runners: Sequence[str],
            notify: Notify, on_result: OnResult = None) -> List[CellResult]:
        results: List[CellResult] = []
        for cell in cells:
            notify("cell.start", {"cell_id": cell.cell_id})
            result = cell_result(cell, run_cell(cell))
            results.append(result)
            if on_result is not None:
                on_result(cell, result)
            notify("cell.done", done_payload(result))
        return results


def _worker_main(conn, inherited, warmup_runners: Sequence[str]) -> None:
    """Worker loop: warm up, then run one cell per message until ``None``
    or EOF (closing the ``inherited`` parent ends of the pipes makes the
    parent's death EOF here).

    Warmup imports every runner module the sweep uses so the first real
    cell does not pay import cost; a broken runner path is reported by
    the cell that names it, not the warmup.
    """
    for parent_end in inherited:
        parent_end.close()
    for dotted in warmup_runners:
        try:
            resolve_runner(dotted)
        except Exception:  # noqa: BLE001 - surfaced per-cell later
            pass
    while True:
        try:
            cell = conn.recv()
        except (EOFError, OSError):
            return                          # the parent is gone
        if cell is None:
            return
        raw = run_cell(cell)
        try:
            data = ForkingPickler.dumps(raw)
        except Exception:  # noqa: BLE001 - a value the pipe cannot carry
            data = ForkingPickler.dumps(dict(
                raw, status="error", value=None,
                error=traceback.format_exc()))
        try:
            conn.send_bytes(data)
        except OSError:
            return                          # the parent is gone


class _Worker:
    """Parent-side bookkeeping for one worker process and its pipe."""

    def __init__(self, ctx, others: Sequence["_Worker"],
                 warmup_runners: Sequence[str]):
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, name="exec-worker", daemon=True,
            args=(child_end, [w.conn for w in others] + [self.conn],
                  tuple(warmup_runners)))
        self.proc.start()
        child_end.close()
        self.busy: Optional[int] = None      # index of the in-flight cell


class LocalPool:
    """A ``multiprocessing`` fan-out backend with crash containment."""

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = max(1, jobs if jobs is not None else usable_cpus())
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def run(self, cells: Sequence[Cell], warmup_runners: Sequence[str],
            notify: Notify, on_result: OnResult = None) -> List[CellResult]:
        cells = list(cells)
        todo: List[int] = list(range(len(cells)))       # not yet dispatched
        attempts = [0] * len(cells)
        results: Dict[int, CellResult] = {}
        workers: List[_Worker] = []

        def finish(idx: int, result: CellResult) -> None:
            results[idx] = result
            if on_result is not None:
                on_result(cells[idx], result)
            notify("cell.done", done_payload(result))

        def lost(w: _Worker) -> None:
            """A worker died: retry the cell it held once, then error."""
            w.proc.join()
            workers.remove(w)
            w.conn.close()
            idx, exitcode = w.busy, w.proc.exitcode
            if idx is None:
                return                       # it held no cell
            retry = attempts[idx] < 2
            notify("cell.crash", {"cell_id": cells[idx].cell_id,
                                  "exitcode": exitcode,
                                  "will_retry": retry})
            if retry:
                todo.insert(0, idx)          # retry first, on another worker
            else:
                finish(idx, CellResult(
                    cell_id=cells[idx].cell_id, status="error",
                    error=(f"worker process died twice running this cell "
                           f"(last exit code {exitcode}); no Python "
                           f"traceback — the crash killed the "
                           f"interpreter"),
                    attempts=attempts[idx]))

        try:
            while len(results) < len(cells):
                # Fill the idle workers, starting workers up to ``jobs``.
                while todo:
                    w = next((w for w in workers if w.busy is None), None)
                    if w is None:
                        if len(workers) == self.jobs:
                            break
                        w = _Worker(self._ctx, workers, warmup_runners)
                        workers.append(w)
                    try:
                        w.conn.send(cells[todo[0]])
                    except OSError:          # it died idle: the cell waits
                        lost(w)
                        continue
                    w.busy = idx = todo.pop(0)
                    attempts[idx] += 1
                    notify("cell.start", {"cell_id": cells[idx].cell_id})
                ready = wait([w.conn for w in workers]
                             + [w.proc.sentinel for w in workers])
                for w in list(workers):
                    if w.conn in ready:
                        try:
                            raw = w.conn.recv()
                        except (EOFError, OSError):   # died, maybe mid-send
                            lost(w)
                            continue
                        idx, w.busy = w.busy, None
                        finish(idx, cell_result(cells[idx], raw,
                                                attempts[idx]))
                    elif w.proc.sentinel in ready:
                        lost(w)
            return [results[i] for i in range(len(cells))]
        finally:
            for w in workers:
                if w.busy is None:
                    try:
                        w.conn.send(None)
                    except OSError:
                        pass
                else:                        # the sweep raised mid-cell
                    w.proc.terminate()
            for w in workers:
                w.proc.join()
                w.conn.close()


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one (a CPU-pinned container), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ignore(event: str, payload: dict) -> None:
    """The :func:`map_cells` notify: nobody watches its progress."""


def map_cells(runner: str, params_list: Sequence[Dict[str, Any]]) -> List:
    """``runner(params, None)`` for each params dict; values in input order.

    ``runner`` is a ``pkg.mod:function`` path, each params dict plain
    data.  The cells run on a :class:`LocalPool` when there is more than
    one of them, more than one usable CPU, and the caller is not itself
    a (daemonic, so childless) pool worker; otherwise in this process,
    through :class:`SerialBackend`.  Either way every worker is joined
    before this returns.  A raising cell raises :class:`ReproError`
    naming the cell, with the runner's traceback.
    """
    cells = [Cell(experiment=runner, runner=runner, params=params)
             for params in params_list]
    if (len(cells) > 1 and usable_cpus() > 1
            and not multiprocessing.current_process().daemon):
        backend = LocalPool()
    else:
        backend = SerialBackend()
    results = backend.run(cells, [runner], _ignore)
    for cell, result in zip(cells, results):
        if not result.ok:
            raise ReproError(f"cell {runner} {cell.params!r} failed:\n"
                             f"{result.error}")
    return [result.value for result in results]


def backend_names() -> List[str]:
    """The backend names :func:`backend_from_spec` accepts, sorted (for
    CLI help/validation)."""
    return ["local", "serial"]


def backend_from_spec(spec: str, jobs: Optional[int] = None):
    """Build a backend from a ``name`` or ``name:jobs`` spec string.

    ``"serial"`` (or ``"serial:1"``) → the in-process reference;
    ``"local:4"`` → a 4-worker :class:`LocalPool` (no count: one worker
    per usable CPU).  The suffix is checked whether or not an explicit
    ``jobs`` argument then wins over it.
    """
    name, colon, suffix = spec.partition(":")
    if name not in backend_names():
        raise ReproError(f"unknown backend {name!r}; registered: "
                         f"{', '.join(backend_names())}")
    if colon:
        try:
            count = int(suffix)
        except ValueError:
            raise ReproError(f"backend spec {spec!r}: jobs suffix must be "
                             f"an integer")
        if count < 1:
            raise ReproError(f"backend jobs must be >= 1, got {count}")
        if name == "serial" and count != 1:
            raise ReproError(f"backend spec {spec!r}: the serial backend "
                             f"runs one cell at a time")
        jobs = count if jobs is None else jobs
    if jobs is not None and jobs < 1:
        raise ReproError(f"backend jobs must be >= 1, got {jobs}")
    return SerialBackend() if name == "serial" else LocalPool(jobs=jobs)
