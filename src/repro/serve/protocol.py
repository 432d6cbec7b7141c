"""The wire protocol: newline-delimited JSON over a local socket.

Every message — request, response, streamed progress event — is one
JSON object on one line, UTF-8, ``\\n``-terminated.  Requests carry an
``op``; responses carry ``ok`` (with ``error`` text when false);
streamed progress lines carry ``event`` instead of ``ok`` so a watching
client can tell them from the final response.

Ops:

``ping``
    liveness probe; answers ``{"ok": true, "pong": true, "v": 1}``.
``submit``
    ``{"op": "submit", "name": ..., "cells": [wire-cells],
    "watch": bool, "wait": bool}`` — register a sweep.  ``wait`` (the
    default) holds the response until the merged results are in hand;
    ``watch`` additionally streams ``exec.*`` progress events first.
    With ``wait: false`` the submit is acknowledged as soon as the
    journal holds it, and the client polls ``result``.
``result``
    fetch a sweep's state/results by ``sweep_id``.
``status``
    every known sweep and its state.
``stats``
    service counters, cache stats, journal stats.
``shutdown``
    graceful stop: in-flight sweeps finish (they are journaled either
    way), then the server exits.

A *wire cell* is the plain-data form of :class:`~repro.exec.spec.Cell`:
``{"experiment", "runner", "params", "seed"}``.  Results come back in
**semantic form** — ``{"cell_id", "status", "value", "error"}``, merged
in cell-id order — deliberately excluding host-side diagnostics
(durations, cache provenance), so the results document for a sweep is
byte-identical no matter which backend ran it, how many times it was
interrupted, or which cells came from cache.  The host-side story
(cached/executed counts, wall time) travels separately in the sweep
summary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.errors import ReproError
from repro.exec.spec import Cell, CellResult, SweepSpec

__all__ = ["PROTOCOL_VERSION", "ProtocolError", "encode", "decode",
           "cell_to_wire", "cells_from_wire", "result_to_wire",
           "spec_from_wire"]

PROTOCOL_VERSION = 1

#: Hard cap on one protocol line; a submission larger than this is
#: almost certainly a runaway client, not a sweep.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed message or an invalid payload."""


def encode(msg: Dict[str, Any]) -> bytes:
    """One message → one sorted-key JSON line (byte-stable for tests)."""
    try:
        return (json.dumps(msg, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
    except (TypeError, ValueError) as e:
        raise ProtocolError(f"message is not JSON-able plain data: {e}")


def decode(line: bytes) -> Dict[str, Any]:
    """One received line → a message dict, with decode errors typed."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        msg = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as e:
        raise ProtocolError(f"undecodable message: {e}")
    if not isinstance(msg, dict):
        raise ProtocolError(f"message must be a JSON object, "
                            f"got {type(msg).__name__}")
    return msg


def cell_to_wire(cell: Cell) -> Dict[str, Any]:
    return {"experiment": cell.experiment, "runner": cell.runner,
            "params": dict(cell.params), "seed": cell.seed}


def cells_from_wire(raw: Sequence[Any]) -> List[Cell]:
    """Validate and rebuild wire cells; errors name the offending index."""
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError("cells must be a list of wire-cell objects")
    cells = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ProtocolError(f"cells[{i}] is not an object")
        unknown = set(item) - {"experiment", "runner", "params", "seed"}
        if unknown:
            raise ProtocolError(f"cells[{i}] has unknown fields: "
                                f"{sorted(unknown)}")
        experiment = item.get("experiment")
        runner = item.get("runner")
        if not isinstance(experiment, str) or not experiment:
            raise ProtocolError(f"cells[{i}].experiment must be a "
                                f"non-empty string")
        if not isinstance(runner, str) or ":" not in runner:
            raise ProtocolError(f"cells[{i}].runner must be a "
                                f"'package.module:function' path")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(f"cells[{i}].params must be an object")
        seed = item.get("seed")
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            raise ProtocolError(f"cells[{i}].seed must be an integer "
                                f"or null")
        cells.append(Cell(experiment=experiment, runner=runner,
                          params=params, seed=seed))
    return cells


def spec_from_wire(name: Any, raw_cells: Sequence[Any]) -> SweepSpec:
    """A validated :class:`SweepSpec` from a submit payload."""
    if not isinstance(name, str) or not name:
        raise ProtocolError("submit.name must be a non-empty string")
    try:
        return SweepSpec(name=name, cells=cells_from_wire(raw_cells))
    except ProtocolError:
        raise
    except ReproError as e:        # empty sweep, duplicate cell ids, ...
        raise ProtocolError(str(e))


def result_to_wire(result: CellResult) -> Dict[str, Any]:
    """The semantic (backend- and history-independent) result form."""
    return {"cell_id": result.cell_id, "status": result.status,
            "value": result.value, "error": result.error}
