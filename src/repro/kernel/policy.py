"""Run policies: the stop conditions of every runtime, in one object.

Before the kernel existed each run loop hand-rolled its own stop logic —
the cluster queue's ``run(until, max_events)``,
``CthScheduler.run(max_switches)``, the AMPI interleave loop's round
budget, BigSim's and POSE's drains.  A
:class:`RunPolicy` captures all of them declaratively:

* ``until`` — advance virtual time no further than this bound (an event
  stamped later than ``until`` stays queued);
* ``max_events`` — dispatch at most this many events (skipped/stale
  events do not count);
* ``quiescence`` — when True (the default) a fully drained queue fires
  the ``on_idle`` hooks (which may re-arm work) and then
  ``on_quiescence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RunPolicy"]


@dataclass(frozen=True)
class RunPolicy:
    """Declarative stop condition for :meth:`EventKernel.run`."""

    until: Optional[float] = None
    max_events: Optional[int] = None
    quiescence: bool = True

    @classmethod
    def drain(cls) -> "RunPolicy":
        """Run until the queue is empty (the common runtime default)."""
        return cls()

    @classmethod
    def until_time(cls, until: float) -> "RunPolicy":
        """Run no further than virtual time ``until``."""
        return cls(until=until)

    @classmethod
    def budget(cls, max_events: int) -> "RunPolicy":
        """Dispatch at most ``max_events`` events."""
        return cls(max_events=max_events)

    def exhausted(self, processed: int) -> bool:
        """Whether the event budget is spent after ``processed`` dispatches."""
        return self.max_events is not None and processed >= self.max_events

    def cuts(self, time: float) -> bool:
        """Whether an event at ``time`` lies beyond the time bound."""
        return self.until is not None and time > self.until
