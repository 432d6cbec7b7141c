"""The sweep service: an asyncio control plane over the deterministic executor.

:class:`SweepService` is the long-running front end from ROADMAP item 3.
Its layering follows the "Fibers are not (P)Threads" shape: an
*asynchronous* accept/dispatch plane loosely coupled — through thread
hand-off and the hook bus, never shared state — to the *synchronous*
deterministic execution substrate (:class:`~repro.exec.SweepExecutor`
over the registered backends).  Nothing asyncio ever runs inside a
cell; nothing a cell computes ever depends on the service.

What the service adds around the executor:

* **Dedupe.**  Cells are content-addressed (:meth:`Cell.cache_key`),
  so two identical submissions are *one computation*: results come from
  the sharded :class:`~repro.exec.cache.ResultCache`, and a submission
  overlapping a sweep already in flight waits for that computation
  instead of racing it (``serve.cells.deduped`` counts both forms of
  hit via the executor's ``cached`` progress payloads).
* **Durability.**  Every submission is fsync'd into the
  :class:`~repro.serve.journal.SubmissionJournal` before it runs; on
  restart, pending sweeps are replayed, resuming from their cache hits
  (the executor persists each finished cell incrementally).
* **Progress streaming.**  The executor's ``exec.sweep.*`` /
  ``exec.cell.*`` hook-bus channels are bridged thread-safely onto
  per-client asyncio queues, so any number of watchers follow a sweep
  live without the executor knowing.
* **Observability.**  Submissions, dedupe hits, executed cells, journal
  replays and rotations all land in a
  :class:`~repro.obs.metrics.MetricsRegistry`, served by the ``stats``
  op.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Set

from repro.errors import ReproError
from repro.exec import (ResultCache, SweepExecutor, SweepSpec,
                        backend_from_spec)
from repro.exec.progress import EXEC_CHANNELS
from repro.kernel import HookBus
from repro.obs import MetricsRegistry
from repro.serve import protocol
from repro.serve.journal import SubmissionJournal

__all__ = ["SweepService"]


class _Sweep:
    """Service-side state for one accepted sweep."""

    __slots__ = ("sweep_id", "spec", "state", "results",
                 "summary", "task", "watchers", "keys")

    def __init__(self, sweep_id: str, spec: SweepSpec):
        self.sweep_id = sweep_id
        self.spec = spec                # validated once, at registration
        self.state = "queued"           # queued | running | done | error
        self.results: Optional[List[Dict[str, Any]]] = None
        self.summary: Dict[str, Any] = {}
        self.task: Optional[asyncio.Task] = None
        self.watchers: List[asyncio.Queue] = []
        self.keys: Set[str] = {cell.cache_key() for cell in spec.cells}


class SweepService:
    """Accept sweeps on a Unix socket; dedupe, journal, execute, stream."""

    def __init__(self, socket_path: str, cache_root: str,
                 journal_path: str, backend: str = "serial",
                 jobs: Optional[int] = None, rotate_after: int = 256):
        self.socket_path = socket_path
        self.cache = ResultCache(cache_root)
        self.journal = SubmissionJournal(journal_path,
                                         rotate_after=rotate_after)
        self.backend_spec = backend
        self.jobs = jobs
        self.registry = MetricsRegistry()
        self._sweeps: Dict[str, _Sweep] = {}
        #: cache_key -> sweep_id currently computing that cell.
        self._inflight_keys: Dict[str, str] = {}
        self._next_number = self.journal.next_sweep_number()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()
        for counter in ("serve.submissions", "serve.sweeps.completed",
                        "serve.cells.submitted", "serve.cells.deduped",
                        "serve.cells.executed", "serve.cells.failed",
                        "serve.journal.replayed",
                        "serve.protocol.errors"):
            self.registry.counter(counter)

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Replay pending journal entries, then open the socket.

        Replayed sweeps run as background tasks; the socket comes up
        immediately so clients can watch the replays catch up.
        """
        for record in self.journal.pending():
            try:
                sweep = self._register(record["sweep_id"], record["name"],
                                       record["cells"], journal=False)
            except ReproError:
                # A record that no longer validates (e.g. hand-edited
                # journal) must not keep the whole service down.
                self.registry.counter("serve.protocol.errors").inc()
                continue
            self.registry.counter("serve.journal.replayed").inc()
            sweep.task = asyncio.create_task(self._run_sweep(sweep))
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path,
            limit=protocol.MAX_LINE_BYTES)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._stopping.wait()
            await self._drain()
        finally:
            await self.close()

    async def _drain(self) -> None:
        """Let journaled in-flight sweeps finish before exit."""
        tasks = [s.task for s in self._sweeps.values()
                 if s.task is not None and not s.task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.journal.close()

    # -- submission plumbing --------------------------------------------

    def _new_sweep_id(self) -> str:
        sid = f"sweep-{self._next_number:06d}"
        self._next_number += 1
        return sid

    def _register(self, sweep_id: str, name: str,
                  wire_cells: List[Dict[str, Any]],
                  journal: bool = True) -> _Sweep:
        """Validate, journal, and index a sweep (not yet running)."""
        sweep = _Sweep(sweep_id, protocol.spec_from_wire(name, wire_cells))
        if journal:
            # Durability before execution: once this returns, a crash
            # at *any* later point replays the sweep.
            self.journal.submit(sweep_id, name, wire_cells)
        self._sweeps[sweep_id] = sweep
        self.registry.counter("serve.submissions").inc()
        self.registry.counter("serve.cells.submitted").inc(len(wire_cells))
        return sweep

    async def _run_sweep(self, sweep: _Sweep) -> None:
        """One sweep end to end: wait out overlaps, execute, record."""
        # Dedupe against in-flight computations: if another sweep is
        # already computing any of our cells, wait for it — its results
        # land in the shared cache, so ours become hits.
        overlapping = {self._inflight_keys[k] for k in sweep.keys
                       if k in self._inflight_keys}
        for key in sweep.keys:
            self._inflight_keys.setdefault(key, sweep.sweep_id)
        for other_id in overlapping:
            other = self._sweeps.get(other_id)
            if other is not None and other.task is not None:
                await asyncio.wait({other.task})
        sweep.state = "running"
        loop = asyncio.get_running_loop()
        hooks = HookBus()

        def forward(payload: dict, **ctx) -> dict:
            # Called on the executor thread: hop to the loop.
            channel = ctx.get("channel", "")
            loop.call_soon_threadsafe(self._on_progress, sweep,
                                      channel, dict(payload))
            return payload

        for channel in EXEC_CHANNELS:
            hooks.subscribe(channel,
                            (lambda ch: lambda payload, **ctx:
                             forward(payload, channel=ch, **ctx))(channel))
        executor = SweepExecutor(
            sweep.spec, cache=self.cache, hooks=hooks,
            backend=backend_from_spec(self.backend_spec, jobs=self.jobs))
        try:
            results = await asyncio.to_thread(executor.run)
        except Exception as e:  # noqa: BLE001 - a sweep must not kill the service
            sweep.state = "error"
            sweep.summary = {"error": f"{type(e).__name__}: {e}"}
            self._broadcast(sweep, "sweep.failed",
                            {"sweep_id": sweep.sweep_id,
                             "error": sweep.summary["error"]})
            return
        finally:
            for key in sweep.keys:
                if self._inflight_keys.get(key) == sweep.sweep_id:
                    del self._inflight_keys[key]
        ok = sum(1 for r in results if r.ok)
        cached = sum(1 for r in results if r.cached)
        sweep.results = [protocol.result_to_wire(r) for r in results]
        sweep.summary = {"ok": ok, "error": len(results) - ok,
                         "cached": cached,
                         "executed": len(results) - cached}
        sweep.state = "done"
        self.journal.done(sweep.sweep_id, ok=ok, error=len(results) - ok)
        self.registry.counter("serve.sweeps.completed").inc()
        self._broadcast(sweep, "sweep.end",
                        {"sweep_id": sweep.sweep_id, **sweep.summary,
                         "results": sweep.results})

    # -- progress fan-out -----------------------------------------------

    def _on_progress(self, sweep: _Sweep, channel: str,
                     payload: Dict[str, Any]) -> None:
        """Count and re-publish one executor event (on the loop)."""
        if channel == "exec.cell.done":
            if payload.get("cached"):
                self.registry.counter("serve.cells.deduped").inc()
            else:
                self.registry.counter("serve.cells.executed").inc()
            if payload.get("status") != "ok":
                self.registry.counter("serve.cells.failed").inc()
        self._broadcast(sweep, channel, payload)

    def _broadcast(self, sweep: _Sweep, event: str,
                   payload: Dict[str, Any]) -> None:
        msg = {"event": event, "sweep_id": sweep.sweep_id, **payload}
        for queue in list(sweep.watchers):
            queue.put_nowait(msg)

    # -- the protocol loop ----------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    self.registry.counter("serve.protocol.errors").inc()
                    writer.write(protocol.encode(
                        {"ok": False, "error": "message too long"}))
                    await writer.drain()
                    break
                if not line.strip():
                    continue
                try:
                    msg = protocol.decode(line)
                    done = await self._dispatch(msg, writer)
                except protocol.ProtocolError as e:
                    self.registry.counter("serve.protocol.errors").inc()
                    writer.write(protocol.encode(
                        {"ok": False, "error": str(e)}))
                    await writer.drain()
                    continue
                if done:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass                          # client vanished mid-reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, msg: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request; True means the connection should close."""
        op = msg.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True,
                                      "v": protocol.PROTOCOL_VERSION})
        elif op == "submit":
            await self._op_submit(msg, writer)
        elif op == "result":
            await self._send(writer, self._op_result(msg))
        elif op == "status":
            await self._send(writer, self._op_status())
        elif op == "stats":
            await self._send(writer, self._op_stats())
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "stopping": True})
            self._stopping.set()
            return True
        else:
            raise protocol.ProtocolError(f"unknown op {op!r}")
        return False

    async def _send(self, writer: asyncio.StreamWriter,
                    msg: Dict[str, Any]) -> None:
        writer.write(protocol.encode(msg))
        await writer.drain()

    async def _op_submit(self, msg: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        sweep = self._register(self._new_sweep_id(), msg.get("name"),
                               msg.get("cells"))
        watch = bool(msg.get("watch", False))
        wait = bool(msg.get("wait", True))
        queue: Optional[asyncio.Queue] = None
        if wait or watch:
            queue = asyncio.Queue()
            sweep.watchers.append(queue)
        sweep.task = asyncio.create_task(self._run_sweep(sweep))
        await self._send(writer, {"ok": True, "sweep_id": sweep.sweep_id,
                                  "cells": len(sweep.spec),
                                  "state": sweep.state})
        if queue is None:
            return
        try:
            while True:
                event = await queue.get()
                terminal = event["event"] in ("sweep.end", "sweep.failed")
                if watch or terminal:
                    await self._send(writer, event)
                if terminal:
                    break
        finally:
            if queue in sweep.watchers:
                sweep.watchers.remove(queue)

    def _op_result(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self._sweeps.get(str(msg.get("sweep_id")))
        if sweep is None:
            return {"ok": False, "error": f"unknown sweep_id "
                                          f"{msg.get('sweep_id')!r}"}
        out = {"ok": True, "sweep_id": sweep.sweep_id,
               "state": sweep.state, **sweep.summary}
        if sweep.results is not None:
            out["results"] = sweep.results
        return out

    def _op_status(self) -> Dict[str, Any]:
        return {"ok": True, "sweeps": {
            sid: {"name": s.spec.name, "state": s.state,
                  "cells": len(s.spec)}
            for sid, s in sorted(self._sweeps.items())}}

    def _op_stats(self) -> Dict[str, Any]:
        return {"ok": True,
                "metrics": self.registry.snapshot(),
                "cache": self.cache.stats(),
                "journal": self.journal.stats()}
