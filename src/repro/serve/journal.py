"""The append-only submission journal: what makes the service restartable.

Every accepted sweep is durably recorded *before* a single cell runs,
and marked done after its last cell — record types on one append-only
JSON-lines file:

``{"type": "submit", "sweep_id": ..., "name": ..., "cells": [...]}``
    fsync'd to disk before the submit is acknowledged; the cells are in
    wire form (plain data), so the record alone can rebuild the sweep.
``{"type": "done", "sweep_id": ..., "ok": n, "error": m}``
    appended when the sweep's merged results are in hand.
``{"type": "mark", "sweep_id": ...}``
    written by rotation alone, when the records it drops held the
    highest sweep number: it counts for numbering and nothing else.

A service killed at any point therefore restarts into one of two
states per sweep: *done* (both records present — nothing to do) or
*pending* (submit without done — re-run it).  Re-running is cheap
because the executor persists every finished cell to the
:class:`~repro.exec.cache.ResultCache` incrementally: replay re-submits
the sweep and the cells that completed before the kill come back as
cache hits, so an interrupted sweep finishes instead of starting over.

The journal only ever grows by appends; compaction is **write-rename
rotation**: the pending records are rewritten to ``<path>.rotate.tmp``,
fsync'd, and ``os.replace``'d over the journal, so a crash mid-rotation
leaves either the old complete journal or the new complete one — never
a torn file.  A torn *trailing* line (the kill landed mid-append) is
tolerated on read and dropped on the next rotation.

The file is read exactly once, at open — the only moment it can hold
records this object did not write.  Every later answer (the replay
worklist, the next sweep number, when to rotate, the stats) comes from
state :meth:`append` keeps as it writes: the journal is a single-writer
log, and a second view of it is a second :class:`SubmissionJournal`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

__all__ = ["SubmissionJournal"]


def _number(sweep_id: Any) -> int:
    """The numeric tail of a sweep id (``sweep-000042`` → 42), else 0."""
    tail = str(sweep_id).rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else 0


class SubmissionJournal:
    """Fsync'd append-only record of sweep submissions and completions."""

    def __init__(self, path: str, rotate_after: int = 256):
        self.path = path
        #: Rotate once this many completed sweeps are sitting in the
        #: journal as dead submit/done pairs.
        self.rotate_after = max(1, int(rotate_after))
        self.rotations = 0
        self._pending: Dict[str, Dict[str, Any]] = {}   # in submit order
        self._dead = 0          # submit/done pairs awaiting rotation
        self._records = 0       # decodable records in the file
        self._dropped = 0       # undecodable lines in the file
        self._highest = 0       # high-water sweep number
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")
        self._load()

    def _load(self) -> None:
        """Fold the file as found at open.

        Only a *trailing* torn line is expected (a kill mid-append);
        mid-file garbage is also skipped rather than aborting the
        restart, because refusing to start over one bad line would turn
        a crash the journal exists to survive into an outage.
        """
        line = "\n"
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    rec = None
                if isinstance(rec, dict) and "sweep_id" in rec:
                    self._fold(rec)
                else:
                    self._dropped += 1
        if not line.endswith("\n"):
            # End the torn tail, or the next append is glued to it and
            # lost with it.
            self._fh.write("\n")

    def _fold(self, rec: Dict[str, Any]) -> None:
        """Account for one record the file now holds."""
        self._records += 1
        sid = rec["sweep_id"]
        self._highest = max(self._highest, _number(sid))
        if rec.get("type") == "submit":
            self._pending[sid] = rec
        elif rec.get("type") == "done" and self._pending.pop(sid, None):
            self._dead += 1

    # -- writing --------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (write + flush + fsync)."""
        if "type" not in record or "sweep_id" not in record:
            raise ReproError(
                f"journal records need type and sweep_id: {record!r}")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fold(record)

    def submit(self, sweep_id: str, name: str,
               cells: List[Dict[str, Any]]) -> None:
        """Record an accepted sweep; must land before execution starts."""
        self.append({"type": "submit", "sweep_id": sweep_id,
                     "name": name, "cells": cells})

    def done(self, sweep_id: str, ok: int, error: int) -> None:
        """Record a completed sweep, then compact if enough dead pairs
        have accumulated."""
        self.append({"type": "done", "sweep_id": sweep_id,
                     "ok": ok, "error": error})
        if self._dead >= self.rotate_after:
            self.rotate()

    # -- reading --------------------------------------------------------

    def pending(self) -> List[Dict[str, Any]]:
        """Submit records with no matching done — the replay worklist,
        in original submission order."""
        return list(self._pending.values())

    def next_sweep_number(self) -> int:
        """1 + the highest numeric sweep id ever recorded — rotated-away
        records included — so ids never repeat across restarts (results
        from two lives of the service must not collide)."""
        return self._highest + 1

    # -- rotation -------------------------------------------------------

    def rotate(self) -> int:
        """Compact to pending-only via write-rename; returns the number
        of records dropped (dead pairs plus torn lines)."""
        keep = self.pending()
        if self._highest > max(map(_number, self._pending), default=0):
            # The records that held the high-water mark are going.
            keep.insert(0, {"type": "mark",
                            "sweep_id": f"mark-{self._highest}"})
        tmp = self.path + ".rotate.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in keep:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.rotations += 1
        dropped = self._records - len(self._pending) + self._dropped
        self._records, self._dead, self._dropped = len(keep), 0, 0
        return dropped

    def stats(self) -> Dict[str, int]:
        """Counts of what the file holds: decodable ``records`` (a mark
        included), ``pending`` submits, undecodable ``dropped`` lines;
        and the ``rotations`` this object has performed."""
        return {"records": self._records, "pending": len(self._pending),
                "dropped": self._dropped, "rotations": self.rotations}

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SubmissionJournal":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None
