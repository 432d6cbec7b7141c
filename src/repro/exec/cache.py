"""Disk-backed result cache: a cell whose key hash has a result is skipped.

The cache keys on :meth:`Cell.cache_key` — a content hash of the runner
path, canonical params, and seed — so a cache hit means "this exact
computation already ran", independent of which process ran it or in what
order.  Only ``ok`` results are stored: errors and crashes always re-run,
mirroring the chaos retry discipline of never memoizing a failure.

The on-disk layout is **sharded**: entry ``abcdef…`` lives at
``<root>/ab/abcdef….json``, a two-level fan-out over the first two hex
characters of the key.  SHA-256 keys spread uniformly, so a cache with
millions of entries keeps every directory at ~1/256th of the population
and :meth:`ResultCache.stats` / shard listing never has to scan one
giant directory.

Entries embed the cache key they were stored under and :meth:`get`
re-verifies it, so a file copied or renamed onto another key's path is
detected as poisoned (deleted, treated as a miss) instead of being
served as that key's result — the filename is an index, never the
authority.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from repro.exec.spec import Cell, CellResult

__all__ = ["ResultCache"]

#: Hex alphabet of the SHA-256 cache keys; shard names draw from it.
_HEX = set("0123456789abcdef")


class ResultCache:
    """A sharded directory tree of ``<ab>/<cache-key>.json`` cell results."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- layout ---------------------------------------------------------

    def _shard_dir(self, key: str) -> str:
        return os.path.join(self.root, key[:2])

    def _path_for_key(self, key: str) -> str:
        return os.path.join(self._shard_dir(key), key + ".json")

    # -- the cache contract ---------------------------------------------

    def get(self, cell: Cell) -> Optional[CellResult]:
        """The cached result for ``cell``, or ``None`` on a miss.

        An unreadable/corrupt entry counts as a miss (the sweep re-runs
        the cell and overwrites it) rather than poisoning the sweep.  An
        entry whose *stored* cache key disagrees with the key it was
        found under — a file copied or renamed across keys — is deleted
        and counts as a miss: content decides, never the filename.
        """
        key = cell.cache_key()
        path = self._path_for_key(key)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        stored_key = data.get("cache_key")
        if stored_key is not None and stored_key != key:
            # Poisoned: this payload was written for a different key.
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - racing eviction
                pass
            return None
        if data.get("cell_id") != cell.cell_id or data.get("status") != "ok":
            return None
        result = CellResult.from_json(data)
        result.cached = True
        return result

    def put(self, cell: Cell, result: CellResult) -> None:
        """Store an ``ok`` result; failures are never cached."""
        if not result.ok:
            return
        key = cell.cache_key()
        shard = self._shard_dir(key)
        os.makedirs(shard, exist_ok=True)
        payload = result.to_json()
        payload["cache_key"] = key
        # Write-rename so a parallel reader never sees a torn entry; the
        # temp file lives in the destination shard so the rename stays a
        # same-directory atomic replace.
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        done = False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self._path_for_key(key))
            done = True
        finally:
            # Any failure — OSError from the filesystem *or* e.g. a
            # TypeError from json.dump on an unserializable payload —
            # must not leak an orphan ``*.tmp``.
            if not done and os.path.exists(tmp):
                os.unlink(tmp)

    def stats(self) -> Dict[str, int]:
        """Entry and shard counts, for the sweep summary line.

        Counting walks only the 2-hex shard directories, each holding
        ~1/256th of the entries, so the scan stays cheap as the cache
        grows.
        """
        entries = 0
        shards = 0
        for name in sorted(os.listdir(self.root)):
            sub = os.path.join(self.root, name)
            if len(name) == 2 and set(name) <= _HEX and os.path.isdir(sub):
                shards += 1
                entries += sum(1 for n in os.listdir(sub)
                               if n.endswith(".json"))
        return {"entries": entries, "shards": shards}
