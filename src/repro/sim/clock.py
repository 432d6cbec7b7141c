"""Virtual-time clock."""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["SimClock"]


class SimClock:
    """A monotonic virtual clock measured in nanoseconds.

    Each simulated processor owns one.  Work charges time with
    :meth:`advance`; message deliveries pull the clock forward with
    :meth:`advance_to` (a processor cannot handle an event before the event
    exists, but an idle processor's clock jumps forward to the delivery
    time).
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in nanoseconds."""
        return self._now

    def advance(self, ns: float) -> float:
        """Charge ``ns`` nanoseconds of work; returns the new time."""
        if ns < 0:
            raise ReproError(f"cannot advance clock by negative time {ns}")
        self._now += ns
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to ``t`` if ``t`` is later; never backward."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimClock {self._now:.1f}ns>"
