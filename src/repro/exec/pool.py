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
* :class:`LocalPool` fans cells out over ``jobs`` worker processes.
  Each worker warms up (imports the sweep's runner modules) before its
  first cell; the parent dispatches exactly one cell per worker at a
  time, so when a worker *dies* (hard crash, not a Python exception) the
  parent knows precisely which cell it held, retries that cell once on a
  fresh worker, and only then marks it ``error`` — the chaos
  retry-once discipline applied to the harness itself.  ``Ctrl-C``
  tears the pool down gracefully (terminate, join, re-raise).

Python exceptions inside a runner are *not* retried: cells are
deterministic, so a raising cell would raise again; the worker catches
the exception and returns an ``error`` result with the full traceback.
Both backends take this exact path, which is what keeps serial and
parallel output byte-identical even for failing cells.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.exec.spec import Cell, CellResult, resolve_runner

__all__ = ["SerialBackend", "LocalPool", "run_cell",
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
    always plain data, safe to ship over a queue.
    """
    # duration_s is host-side diagnostics about the run, not part of
    # the result value; cells themselves stay pure in (params, seed).
    # migralint: disable=DET001
    t0 = time.perf_counter()
    try:
        fn = resolve_runner(cell.runner)
        value = fn(dict(cell.params), cell.seed)
        return {"status": "ok", "value": value, "error": "",
                "duration_s": time.perf_counter() - t0}  # migralint: disable=DET001
    except Exception:  # noqa: BLE001 - containment is the whole point
        return {"status": "error", "value": None,
                "error": traceback.format_exc(),
                "duration_s": time.perf_counter() - t0}  # migralint: disable=DET001


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


def _worker_main(token: int, task_q, result_q,
                 warmup_runners: Sequence[str]) -> None:
    """Worker loop: warm up, then run one cell per message until sentinel.

    Warmup imports every runner module the sweep uses so the first real
    cell does not pay import cost; a broken runner path is reported by
    the cell that names it, not the warmup.
    """
    for dotted in warmup_runners:
        try:
            resolve_runner(dotted)
        except Exception:  # noqa: BLE001 - surfaced per-cell later
            pass
    result_q.put(("ready", token, None, None))
    while True:
        item = task_q.get()
        if item is None:
            return
        idx, cell = item
        result_q.put(("done", token, idx, run_cell(cell)))


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, ctx, token: int, result_q,
                 warmup_runners: Sequence[str]):
        self.token = token
        self.task_q = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_worker_main, name=f"exec-worker-{token}",
            args=(token, self.task_q, result_q, tuple(warmup_runners)),
            daemon=True)
        self.proc.start()
        self.busy: Optional[int] = None      # index of the in-flight cell

    def dispatch(self, idx: int, cell: Cell) -> None:
        assert self.busy is None
        self.busy = idx
        self.task_q.put((idx, cell))

    def stop(self) -> None:
        try:
            self.task_q.put(None)
        except (OSError, ValueError):  # pragma: no cover - late teardown
            pass


class LocalPool:
    """A ``multiprocessing`` fan-out backend with crash containment."""

    #: How long to wait on the result queue before polling worker health.
    _POLL_S = 0.1

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = max(1, jobs if jobs is not None
                        else (multiprocessing.cpu_count() or 1))
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def run(self, cells: Sequence[Cell], warmup_runners: Sequence[str],
            notify: Notify, on_result: OnResult = None) -> List[CellResult]:
        cells = list(cells)
        if not cells:
            return []
        result_q = self._ctx.Queue()
        todo: List[int] = list(range(len(cells)))       # not yet dispatched
        attempts: Dict[int, int] = {i: 0 for i in todo}
        results: Dict[int, CellResult] = {}
        workers: Dict[int, _Worker] = {}
        next_token = 0

        def spawn() -> _Worker:
            nonlocal next_token
            w = _Worker(self._ctx, next_token, result_q, warmup_runners)
            workers[w.token] = w
            next_token += 1
            return w

        def dispatch_idle() -> None:
            idle = sorted(t for t, w in workers.items() if w.busy is None)
            for token in idle:
                if not todo:
                    break
                idx = todo.pop(0)
                attempts[idx] += 1
                workers[token].dispatch(idx, cells[idx])
                notify("cell.start", {"cell_id": cells[idx].cell_id})

        try:
            for _ in range(min(self.jobs, len(cells))):
                spawn()
            dispatch_idle()
            while len(results) < len(cells):
                try:
                    kind, token, idx, raw = result_q.get(
                        timeout=self._POLL_S)
                except queue_mod.Empty:
                    self._handle_dead_workers(cells, workers, todo, attempts,
                                              results, notify, spawn,
                                              on_result)
                    dispatch_idle()
                    continue
                worker = workers.get(token)
                if worker is None:
                    continue                 # late message from a reaped worker
                if kind == "ready":
                    continue
                if kind == "done" and worker.busy == idx:
                    worker.busy = None
                    results[idx] = cell_result(cells[idx], raw,
                                               attempts[idx])
                    if on_result is not None:
                        on_result(cells[idx], results[idx])
                    notify("cell.done", done_payload(results[idx]))
                    dispatch_idle()
            return [results[i] for i in range(len(cells))]
        except KeyboardInterrupt:
            for w in workers.values():
                w.proc.terminate()
            raise
        finally:
            for w in workers.values():
                w.stop()
            # Shutdown grace period for worker processes — host
            # plumbing after every cell result is already in hand.
            # migralint: disable=DET001
            deadline = time.monotonic() + 2.0
            for w in workers.values():
                w.proc.join(max(0.0, deadline - time.monotonic()))  # migralint: disable=DET001
                if w.proc.is_alive():  # pragma: no cover - stuck worker
                    w.proc.terminate()
                    w.proc.join(1.0)
            result_q.cancel_join_thread()
            result_q.close()

    def _handle_dead_workers(self, cells, workers, todo, attempts, results,
                             notify, spawn, on_result: OnResult = None
                             ) -> None:
        """Contain hard crashes: retry the held cell once, then error."""
        for token in sorted(workers):
            w = workers[token]
            if w.proc.is_alive():
                continue
            idx = w.busy
            del workers[token]
            if idx is None:
                # Died idle (e.g. during warmup with nothing assigned).
                if todo:
                    spawn()
                continue
            cell = cells[idx]
            exitcode = w.proc.exitcode
            if attempts[idx] < 2:
                notify("cell.crash", {"cell_id": cell.cell_id,
                                      "exitcode": exitcode,
                                      "will_retry": True})
                todo.insert(0, idx)          # retry first, on a fresh worker
            else:
                notify("cell.crash", {"cell_id": cell.cell_id,
                                      "exitcode": exitcode,
                                      "will_retry": False})
                results[idx] = CellResult(
                    cell_id=cell.cell_id, status="error",
                    error=(f"worker process died twice running this cell "
                           f"(last exit code {exitcode}); no Python "
                           f"traceback — the crash killed the "
                           f"interpreter"),
                    attempts=attempts[idx])
                if on_result is not None:
                    on_result(cell, results[idx])
                notify("cell.done", done_payload(results[idx]))
            if todo:
                spawn()


def backend_names() -> List[str]:
    """The backend names :func:`backend_from_spec` accepts, sorted (for
    CLI help/validation)."""
    return ["local", "serial"]


def backend_from_spec(spec: str, jobs: Optional[int] = None):
    """Build a backend from a ``name`` or ``name:jobs`` spec string.

    ``"serial"`` → the in-process reference; ``"local:4"`` → a 4-worker
    :class:`LocalPool` (no count: one worker per CPU); an explicit
    ``jobs`` argument wins over the suffix.
    """
    name, _, suffix = spec.partition(":")
    if suffix:
        try:
            jobs = int(suffix) if jobs is None else jobs
        except ValueError:
            raise ReproError(f"backend spec {spec!r}: jobs suffix must be "
                             f"an integer")
    if name not in backend_names():
        raise ReproError(f"unknown backend {name!r}; registered: "
                         f"{', '.join(backend_names())}")
    if jobs is not None and jobs < 1:
        raise ReproError(f"backend jobs must be >= 1, got {jobs}")
    return SerialBackend() if name == "serial" else LocalPool(jobs=jobs)
