"""Sweep specifications: what a parallel sweep runs, one cell at a time.

A *cell* is the unit of fan-out: one experiment configuration at one
seed, identified by a stable ``(experiment, config-hash, seed)`` id.
Cells are **plain data** — a dotted-path worker entry point plus a
JSON-able parameter dict — never live runtime objects, so a cell crosses
a process boundary without dragging kernel state with it and its id is
the same in every process that computes it (the property the
:class:`~repro.exec.cache.ResultCache` and the byte-identical
serial-vs-parallel merge both hang off).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["Cell", "CellResult", "SweepSpec", "resolve_runner"]


def _canonical(params: Dict[str, Any]) -> str:
    """Canonical JSON for hashing: sorted keys, no whitespace drift."""
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as e:
        raise ReproError(
            f"cell params must be JSON-able plain data (no live runtime "
            f"objects): {e}")


def resolve_runner(dotted: str) -> Callable:
    """Import a worker entry point from its ``pkg.mod:function`` path.

    Entry points are addressed by name — not passed as callables — so a
    cell never pickles a closure or a bound method, and a freshly
    spawned worker resolves exactly the code the parent named.
    """
    if ":" not in dotted:
        raise ReproError(
            f"runner {dotted!r} must be a 'package.module:function' path")
    mod_name, fn_name = dotted.split(":", 1)
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if not callable(fn):
        raise ReproError(f"runner {dotted!r} does not name a callable")
    return fn


@dataclass(frozen=True)
class Cell:
    """One independent sweep cell: an experiment at one configuration/seed.

    ``runner`` is the dotted path of the worker entry point
    (``fn(params, seed) -> JSON-able payload``); ``params`` must be
    plain data.  ``seed`` is ``None`` for unseeded experiments (e.g. a
    figure regeneration).
    """

    experiment: str
    runner: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    @cached_property
    def _params_json(self) -> str:
        """The canonical params text every name below derives from; a
        cell is plain data fixed at construction, so it is taken once."""
        return _canonical(self.params)

    @cached_property
    def config_hash(self) -> str:
        """Stable short hash of the cell's code + configuration."""
        blob = f"{self.runner}\n{self._params_json}"
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @cached_property
    def cell_id(self) -> str:
        """The stable ``experiment/config-hash/seed`` identity."""
        tail = "-" if self.seed is None else str(self.seed)
        return f"{self.experiment}/{self.config_hash}/{tail}"

    @cached_property
    def sort_key(self) -> Tuple:
        """Merge order: experiment, then config, then *numeric* seed."""
        return (self.experiment, self.config_hash,
                self.seed is not None, self.seed or 0)

    def cache_key(self) -> str:
        """Full-length content hash keying the on-disk result cache."""
        blob = (f"exec-cache-v1\n{self.experiment}\n{self.runner}\n"
                f"{self._params_json}\n{self.seed!r}")
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CellResult:
    """What one cell produced (or how it failed)."""

    cell_id: str
    status: str                  # "ok" | "error"
    value: Any = None            # the runner's JSON-able payload
    error: str = ""              # traceback / crash detail when status=error
    attempts: int = 1            # 2 when the retry-on-fresh-worker fired
    duration_s: float = 0.0      # wall time of the successful attempt
    cached: bool = False         # True when served from the ResultCache

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        return {"cell_id": self.cell_id, "status": self.status,
                "value": self.value, "error": self.error,
                "attempts": self.attempts, "duration_s": self.duration_s}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CellResult":
        return cls(cell_id=data["cell_id"], status=data["status"],
                   value=data.get("value"), error=data.get("error", ""),
                   attempts=data.get("attempts", 1),
                   duration_s=data.get("duration_s", 0.0))


class SweepSpec:
    """A named collection of cells with unique, stable ids."""

    def __init__(self, name: str, cells: Sequence[Cell]):
        self.name = name
        self.cells: List[Cell] = list(cells)
        if not self.cells:
            raise ReproError(f"sweep {name!r} has no cells — an empty "
                             f"sweep succeeds vacuously and hides mistakes")
        seen: Dict[str, Cell] = {}
        for cell in self.cells:
            cid = cell.cell_id
            if cid in seen:
                raise ReproError(f"duplicate cell id {cid!r} in sweep "
                                 f"{name!r}")
            seen[cid] = cell

    def __len__(self) -> int:
        return len(self.cells)

    def runners(self) -> List[str]:
        """Distinct runner paths, for per-worker warmup."""
        return sorted({cell.runner for cell in self.cells})

    def merged_order(self) -> List[Cell]:
        """Cells in merge order (by cell id components, seeds numeric)."""
        return sorted(self.cells, key=lambda c: c.sort_key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SweepSpec {self.name!r}: {len(self.cells)} cell(s)>"
