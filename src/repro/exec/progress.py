"""Live sweep progress over the kernel's HookBus conventions.

The executor publishes its lifecycle on named :class:`HookBus` channels
(``exec.sweep.begin``, ``exec.cell.start``, ``exec.cell.done``,
``exec.cell.crash``, ``exec.sweep.end``) exactly the way the runtimes
publish their faultable sites: anything — a progress bar, a test, a
future scheduler — subscribes without the executor knowing.
:class:`ProgressReporter` is the stock subscriber: done/running/failed
counts plus an ETA extrapolated from completed-cell wall time.

Wall-clock only ever feeds the *display*; nothing time-derived touches a
result, which is how a sweep stays byte-identical across machines.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.kernel import HookBus

__all__ = ["EXEC_CHANNELS", "ProgressReporter"]

#: The executor's published channels, in rough firing order.
EXEC_CHANNELS = (
    "exec.sweep.begin",
    "exec.cell.start",
    "exec.cell.done",
    "exec.cell.crash",
    "exec.sweep.end",
)


class ProgressReporter:
    """Subscribe to a sweep's channels and narrate done/running/failed."""

    def __init__(self, bus: HookBus, stream: Optional[TextIO] = None,
                 clock=None):
        self.bus = bus
        self.stream = stream if stream is not None else sys.stderr
        # Injectable clock so the ETA math is testable with fake time;
        # the wall clock only ever feeds the operator display.
        self._clock = clock if clock is not None else time.monotonic
        self.total = 0
        self.done = 0
        self.failed = 0
        self.running = 0
        self._t0: Optional[float] = None     # set by exec.sweep.begin
        self._live = self.stream.isatty() if hasattr(
            self.stream, "isatty") else False
        self._subscribed = []
        for channel, fn in (("exec.sweep.begin", self._on_begin),
                            ("exec.cell.start", self._on_start),
                            ("exec.cell.done", self._on_done),
                            ("exec.cell.crash", self._on_crash),
                            ("exec.sweep.end", self._on_end)):
            bus.subscribe(channel, fn)
            self._subscribed.append((channel, fn))

    def detach(self) -> None:
        """Unsubscribe from every channel (reporters are per-sweep)."""
        for channel, fn in self._subscribed:
            self.bus.unsubscribe(channel, fn)
        self._subscribed = []

    # -- channel subscribers (filter-style: return the payload) ---------

    def _on_begin(self, payload, **ctx):
        self.total = payload["cells"]
        # Wall clock feeds the operator-facing ETA line only.
        self._t0 = self._clock()
        return payload

    def _on_start(self, payload, **ctx):
        self.running += 1
        return payload

    def _on_crash(self, payload, **ctx):
        if payload["will_retry"]:
            self.running -= 1       # the retry's cell.start re-counts it
            self._emit(f"worker died on {payload['cell_id']} "
                       f"(exit {payload['exitcode']}); retrying once",
                       force=True)
        return payload

    def _on_done(self, payload, **ctx):
        self.done += 1
        if not payload.get("cached"):
            self.running = max(0, self.running - 1)
        if payload["status"] != "ok":
            self.failed += 1
        step = max(1, self.total // 10)
        self._emit(self._line(), force=self._live or self.failed
                   or self.done % step == 0 or self.done == self.total)
        return payload

    def _on_end(self, payload, **ctx):
        if self._live:
            self.stream.write("\n")
        self._emit(f"sweep {payload['name']!r}: {payload['ok']} ok, "
                   f"{payload['error']} failed in "
                   f"{payload['duration_s']:.1f}s", force=True)
        return payload

    # -- rendering ------------------------------------------------------

    def _eta_s(self) -> Optional[float]:
        """Extrapolated seconds remaining, or ``None`` when unknowable.

        ``None`` (no ETA shown) rather than a nonsense number when:
        no cell has finished; the sweep is done; ``exec.sweep.begin``
        never fired (``_t0`` unset — extrapolating from epoch would
        claim a gigantic ETA); or the first completion landed within
        timer resolution (elapsed ≤ 0 — zero would claim the rest of
        the sweep is free, and a clock hiccup would go negative).
        """
        if not self.done or self.done >= self.total or self._t0 is None:
            return None
        elapsed = self._clock() - self._t0
        if elapsed <= 0.0:
            return None
        return elapsed / self.done * (self.total - self.done)

    def _line(self) -> str:
        eta = self._eta_s()
        tail = f", ETA {eta:.1f}s" if eta is not None else ""
        return (f"[exec] {self.done}/{self.total} done, "
                f"{self.running} running, {self.failed} failed{tail}")

    def _emit(self, text: str, force: bool) -> None:
        if not force:
            return
        if self._live:
            self.stream.write("\r" + text.ljust(60))
        else:
            self.stream.write(text + "\n")
        self.stream.flush()
