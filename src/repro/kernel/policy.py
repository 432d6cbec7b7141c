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
