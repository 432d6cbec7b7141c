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
* :meth:`KernelTracer.timeline` — per-flow dispatch timeline
  (``flow → [(time, category, site), ...]``).
* :attr:`KernelTracer.counters` — aggregate metrics: events scheduled /
  dispatched / skipped / cancelled, context switches (``cth.resume``
  dispatches), messages (``net.*`` dispatches), quiescence count, and
  total virtual idle time between dispatches.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

__all__ = ["KernelTracer", "load_trace"]

# One codec for every trace line written and read: ``json.dumps`` /
# ``json.loads`` would rebuild an encoder per entry and re-scan each
# line for surrounding whitespace.
_encode_line = json.JSONEncoder(sort_keys=True).encode
_decode_line = json.JSONDecoder().raw_decode


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSON-lines trace file into a list of entry dicts.

    This is the one trace-reading surface: the obs report, the query
    CLI, and the replay tooling all load through here.  Two validity
    rules beyond "each line parses":

    * Every line must decode to a JSON *object* — a bare array or
      scalar would crash every consumer downstream, so it is rejected
      here with the file/line position.
    * A torn **final** line is tolerated, but only when the file does
      not end in a newline: a run killed mid-append (SIGKILL between
      ``write`` calls) legitimately leaves an unterminated tail, and
      the serve journal already honors exactly this contract.  A
      malformed line that *is* newline-terminated — or sits mid-file —
      is corruption and stays a hard error.
    """
    with open(path) as fh:
        data = fh.read()
    entries: List[Dict[str, Any]] = []
    raw_lines = data.split("\n")
    terminated = data.endswith("\n")
    last = len(raw_lines) - 1
    for index, line in enumerate(raw_lines):
        line = line.strip()
        if not line:
            continue
        try:
            entry, end = _decode_line(line)
            if end != len(line):
                # ``line`` is stripped, so whatever follows the value is
                # data; report it where ``json.loads`` would, past any
                # JSON whitespace.
                rest = line[end:].lstrip(" \t\n\r")
                raise json.JSONDecodeError("Extra data", line,
                                           len(line) - len(rest))
        except ValueError as e:
            if index == last and not terminated:
                break  # torn tail from a killed writer: drop it
            raise ReproError(
                f"{path}:{index + 1}: not a JSON trace line: {e}")
        if not isinstance(entry, dict):
            raise ReproError(
                f"{path}:{index + 1}: trace line is not a JSON object")
        entries.append(entry)
    return entries


class KernelTracer:
    """Structured event log + counters for one :class:`EventKernel`."""

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        self.counters: Dict[str, Any] = {
            "scheduled": 0,
            "dispatched": 0,
            "skipped": 0,
            "cancelled": 0,
            "switches": 0,
            "messages": 0,
            "quiescences": 0,
            "idle_ns": 0.0,
            "by_category": {},
        }
        self._kernel = None
        self._last_end_time: Optional[float] = None

    # -- attachment -----------------------------------------------------

    def attach(self, kernel) -> "KernelTracer":
        """Subscribe to every notification hook of ``kernel``."""
        if self._kernel is not None:
            raise ReproError("tracer is already attached")
        self._kernel = kernel
        bus = kernel.hooks
        bus.subscribe("on_schedule", self._on_schedule)
        bus.subscribe("on_dispatch_begin", self._on_begin)
        bus.subscribe("on_dispatch_end", self._on_end)
        bus.subscribe("on_cancel", self._on_cancel)
        bus.subscribe("on_idle", self._on_idle)
        bus.subscribe("on_quiescence", self._on_quiescence)
        return self

    def detach(self) -> None:
        """Unsubscribe; the kernel returns to its zero-cost path."""
        if self._kernel is None:
            raise ReproError("tracer is not attached")
        bus = self._kernel.hooks
        bus.unsubscribe("on_schedule", self._on_schedule)
        bus.unsubscribe("on_dispatch_begin", self._on_begin)
        bus.unsubscribe("on_dispatch_end", self._on_end)
        bus.unsubscribe("on_cancel", self._on_cancel)
        bus.unsubscribe("on_idle", self._on_idle)
        bus.unsubscribe("on_quiescence", self._on_quiescence)
        self._kernel = None

    # -- hook callbacks -------------------------------------------------

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
                # argument; surface its identity so trace consumers (the
                # repro.obs report) can build size/latency histograms and
                # migration tables without the live objects.
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
        self.counters["scheduled"] += 1
        self._entry("schedule", kernel, ev)

    def _on_begin(self, kernel, ev) -> None:
        self._entry("begin", kernel, ev)
        if self._last_end_time is not None and ev.time > self._last_end_time:
            self.counters["idle_ns"] += ev.time - self._last_end_time

    def _on_end(self, kernel, ev) -> None:
        entry = self._entry("end", kernel, ev)
        if kernel is self._kernel:
            # The idle clock follows the attached kernel only: a subclass
            # may feed other kernels' dispatches (RunObserver's thread
            # kernels, which run on FIFO priority keys, not time).
            self._last_end_time = ev.time
        c = self.counters
        if kernel._skip:
            entry["skipped"] = True
            c["skipped"] += 1
            return
        c["dispatched"] += 1
        cat = ev.category or "uncategorized"
        by_cat = c["by_category"]
        by_cat[cat] = by_cat.get(cat, 0) + 1
        if cat == "cth.resume":
            c["switches"] += 1
        elif cat.startswith("net."):
            c["messages"] += 1

    def _on_cancel(self, kernel, ev) -> None:
        self.counters["cancelled"] += 1
        self._entry("cancel", kernel, ev)

    def _on_idle(self, kernel) -> bool:
        self._entry("idle", kernel)
        return False  # observation only: never re-arms work

    def _on_quiescence(self, kernel) -> None:
        self.counters["quiescences"] += 1
        self._entry("quiescence", kernel)

    # -- reports --------------------------------------------------------

    def timeline(self) -> Dict[str, List[tuple]]:
        """Per-flow dispatch timeline from the recorded ``begin`` entries."""
        out: Dict[str, List[tuple]] = {}
        for e in self.entries:
            if e["ev"] != "begin":
                continue
            flow = e.get("flow", "?")
            out.setdefault(flow, []).append(
                (e["t"], e.get("category", ""), e.get("site", "")))
        return out

    def dump(self, path: str) -> int:
        """Write the event log as JSON lines; returns the entry count."""
        with open(path, "w") as fh:
            fh.write("".join([_encode_line(e) + "\n" for e in self.entries]))
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.counters
        return (f"<KernelTracer dispatched={c['dispatched']} "
                f"scheduled={c['scheduled']} entries={len(self.entries)}>")
