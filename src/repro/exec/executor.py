"""The sweep executor: cache, fan out, contain, merge.

:class:`SweepExecutor` ties the pieces together for one
:class:`~repro.exec.spec.SweepSpec`:

1. consult the :class:`~repro.exec.cache.ResultCache` (unless
   ``force``) and set already-computed cells aside;
2. hand the remaining cells to the backend (serial or
   :class:`~repro.exec.pool.LocalPool`), publishing progress on the
   hook bus as they start/finish/crash;
3. cache fresh ``ok`` results;
4. **merge**: return every result ordered by cell id — completion
   order never leaks into output, so a 4-worker sweep and a serial one
   produce byte-identical files.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.exec.cache import ResultCache
from repro.exec.pool import SerialBackend, done_payload
from repro.exec.spec import CellResult, SweepSpec
from repro.kernel import HookBus

__all__ = ["SweepExecutor"]


class SweepExecutor:
    """Run one sweep spec through a backend, with caching and merging."""

    def __init__(self, spec: SweepSpec, backend=None,
                 cache: Optional[ResultCache] = None, force: bool = False,
                 hooks: Optional[HookBus] = None):
        self.spec = spec
        self.backend = backend or SerialBackend()
        self.cache = cache
        self.force = force
        self.hooks = hooks or HookBus()

    def _emit(self, channel: str, payload: dict) -> dict:
        return self.hooks.filter(channel, payload)

    def run(self) -> List[CellResult]:
        """Execute the sweep; results come back ordered by cell id."""
        # Host-side sweep duration for the progress log only — never
        # visible to cells, which see only (params, seed).
        t0 = time.monotonic()
        by_id: Dict[str, CellResult] = {}
        todo = []
        for cell in self.spec.cells:
            hit = (self.cache.get(cell)
                   if self.cache is not None and not self.force else None)
            if hit is not None:
                by_id[cell.cell_id] = hit
            else:
                todo.append(cell)
        self._emit("exec.sweep.begin", {
            "name": self.spec.name, "cells": len(self.spec),
            "cached": len(by_id)})
        for result in by_id.values():
            self._emit("exec.cell.done", done_payload(result))
        if todo:
            def notify(event: str, payload: dict) -> None:
                self._emit("exec." + event, payload)

            def on_result(cell, result) -> None:
                # Persist each cell the moment it lands — a sweep killed
                # mid-run resumes from every finished cell, which is
                # what the serve journal's replay-from-cache rests on.
                if self.cache is not None:
                    self.cache.put(cell, result)

            fresh = self.backend.run(todo, self.spec.runners(), notify,
                                     on_result=on_result)
            for cell, result in zip(todo, fresh):
                by_id[cell.cell_id] = result
        merged = [by_id[c.cell_id] for c in self.spec.merged_order()]
        self._emit("exec.sweep.end", {
            "name": self.spec.name,
            "ok": sum(1 for r in merged if r.ok),
            "error": sum(1 for r in merged if not r.ok),
            "duration_s": time.monotonic() - t0})
        return merged
