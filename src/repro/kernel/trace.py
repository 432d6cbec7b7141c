"""Projections-style tracing over the kernel hook bus.

A :class:`KernelTracer` subscribes to a kernel's notification hooks and
records one structured entry per lifecycle point.  Nothing in the kernel
knows the tracer exists — when it is detached (the default), the
kernel's only instrumentation cost is one boolean check per dispatch.

Output formats:

* :meth:`KernelTracer.dump` — JSON-lines event log, one object per
  line, in the spirit of Charm++ Projections logs.  Every entry carries
  ``{"ev": kind, "t": virtual_time, "seq": ..., "kernel": name}`` plus
  ``category``/``flow``/``site`` where known.  Kinds: ``schedule``,
  ``begin``, ``end``, ``cancel``, ``idle``, ``quiescence``.

The entries are the tracer's only record: counts (dispatches per
category or flow, switches, messages) are folds over them, e.g.
``python -m repro.query aggregate``/``timeline``/``report``.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Dict, List

from repro.errors import ReproError

__all__ = ["KernelTracer", "load_trace"]

# One codec for every trace line written and read: ``json.dumps`` /
# ``json.loads`` would rebuild an encoder per entry and re-scan each
# line for surrounding whitespace.
_encode_line = json.JSONEncoder(sort_keys=True).encode
_decode_line = json.JSONDecoder().raw_decode

#: Entries joined per ``write`` in :meth:`KernelTracer.dump`: the file's
#: bytes are one ``_encode_line`` per entry whatever the chunk, and the
#: text held at once stays bounded however long the trace.
_DUMP_CHUNK = 1024


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSON-lines trace file into a list of entry dicts.

    This is the one trace-reading surface: the obs report, the query
    CLI, and the replay tooling all load through here.  Three validity
    rules beyond "each line parses":

    * Every line must decode to a JSON *object* — a bare array or
      scalar would crash every consumer downstream, so it is rejected
      here with the file/line position.
    * Every line must be UTF-8 text; a line holding any other byte is
      rejected with its position.
    * A torn **final** line is tolerated, but only when the file does
      not end in a newline: a run killed mid-append (SIGKILL between
      ``write`` calls) legitimately leaves an unterminated tail, and
      the serve journal already honors exactly this contract.  A
      malformed line that *is* newline-terminated — or sits mid-file —
      is corruption and stays a hard error.

    The file is read a line at a time, and equal keys and equal string
    values share one object across the loaded entries, so a trace read
    back takes about the memory of the same entries recorded in memory.
    """
    entries: List[Dict[str, Any]] = []
    share = {}.setdefault
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            # Only the unterminated last line can be a torn append.
            torn = not line.endswith("\n")
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError:
                    if torn:
                        break
                    raise ReproError(
                        f"{path}:{number}: trace line is not UTF-8 text")
            line = line.strip()
            if not line:
                continue
            try:
                entry, end = _decode_line(line)
                if end != len(line):
                    # ``line`` is stripped, so whatever follows the value
                    # is data; report it where ``json.loads`` would, past
                    # any JSON whitespace.
                    rest = line[end:].lstrip(" \t\n\r")
                    raise json.JSONDecodeError("Extra data", line,
                                               len(line) - len(rest))
            except ValueError as e:
                if torn:
                    break  # torn tail from a killed writer: drop it
                raise ReproError(
                    f"{path}:{number}: not a JSON trace line: {e}")
            if not isinstance(entry, dict):
                raise ReproError(
                    f"{path}:{number}: trace line is not a JSON object")
            entries.append({share(k, k): share(v, v) if v.__class__ is str
                            else v for k, v in entry.items()})
    return entries


class KernelTracer:
    """Structured event log for one :class:`EventKernel`."""

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        self._kernel = None

    # -- attachment -----------------------------------------------------

    def attach(self, kernel) -> "KernelTracer":
        """Subscribe to every notification hook of ``kernel``.

        The kernel's hook bus holds the tracer; the tracer holds the
        kernel only weakly (for :meth:`detach`), so an attached tracer
        never keeps a finished run alive, nor the run it.
        """
        if self._kernel is not None:
            raise ReproError("tracer is already attached")
        self._kernel = weakref.ref(kernel)
        for hook, fn in self._hooks():
            kernel.hooks.subscribe(hook, fn)
        return self

    def detach(self) -> None:
        """Unsubscribe; the kernel returns to its zero-cost path."""
        if self._kernel is None:
            raise ReproError("tracer is not attached")
        kernel = self._kernel()
        if kernel is not None:
            for hook, fn in self._hooks():
                kernel.hooks.unsubscribe(hook, fn)
        self._kernel = None

    # -- hook callbacks -------------------------------------------------

    def _hooks(self):
        return (("on_schedule", self._on_schedule),
                ("on_dispatch_begin", self._on_begin),
                ("on_dispatch_end", self._on_end),
                ("on_cancel", self._on_cancel),
                ("on_idle", self._on_idle),
                ("on_quiescence", self._on_quiescence))

    def _entry(self, kind: str, kernel, ev=None) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"ev": kind, "kernel": kernel.name,
                                 "t": kernel.current_time}
        if ev is not None:
            entry["t"] = ev.time
            entry["seq"] = ev.seq
            category = ev.category
            if category:
                entry["category"] = category
            flow = ev.flow
            if flow is not None:
                entry["flow"] = flow
            site = getattr(ev.fn, "__qualname__", None)
            if site:
                entry["site"] = site
            if category and category.startswith("net."):
                # Message deliveries carry the Message as their first
                # argument; surface its identity so trace consumers
                # (``python -m repro.query report``) can build size/latency
                # histograms and migration tables without the live objects.
                args = ev.args
                msg = args[0] if args else None
                src = getattr(msg, "src", None)
                if src is not None:
                    entry["src"] = src
                    entry["dst"] = msg.dst
                    entry["bytes"] = msg.size_bytes
                    entry["sent"] = msg.send_time
        self.entries.append(entry)
        return entry

    def _on_schedule(self, kernel, ev) -> None:
        self._entry("schedule", kernel, ev)

    def _on_begin(self, kernel, ev) -> None:
        self._entry("begin", kernel, ev)

    def _on_end(self, kernel, ev) -> None:
        entry = self._entry("end", kernel, ev)
        if kernel._skip:
            entry["skipped"] = True

    def _on_cancel(self, kernel, ev) -> None:
        self._entry("cancel", kernel, ev)

    def _on_idle(self, kernel) -> bool:
        self._entry("idle", kernel)
        return False  # observation only: never re-arms work

    def _on_quiescence(self, kernel) -> None:
        self._entry("quiescence", kernel)

    # -- output ---------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write the event log as JSON lines; returns the entry count."""
        entries = self.entries
        with open(path, "w") as fh:
            for start in range(0, len(entries), _DUMP_CHUNK):
                fh.write("".join([_encode_line(e) + "\n" for e in
                                  entries[start:start + _DUMP_CHUNK]]))
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelTracer entries={len(self.entries)}>"
