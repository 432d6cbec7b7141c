"""Compiled continuations as flows of control.

The mechanism the 2006 paper *couldn't* benchmark: thread-style source,
event-style execution.  Bodies are written as generators (Section 2.3's
natural style) and mechanically translated by
:mod:`repro.flows.compile` into flat state machines dispatched on the
fast-path kernel, so a "flow" costs one small frame record — no stack,
no kernel object — and a switch is one scheduler dispatch plus the
trampoline's frame indirection.  That is what pushes the Table 2 column
to 10⁶ flows per PE.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from repro.flows.base import FlowMechanism

__all__ = ["CompiledContinuationFlow"]


class CompiledContinuationFlow(FlowMechanism):
    """Thread bodies compiled to continuation state machines."""

    label = "compiled"
    form = "compiled"
    #: A switch re-touches one frame record, barely more than an event
    #: object's application data.
    cache_weight = 0.35
    #: Modeled per-flow footprint: the ``__slots__`` frame record plus
    #: the parked (state fn, frame) continuation pair.
    frame_bytes = 512
    #: Trampoline + frame indirection on top of a raw event dispatch.
    continuation_ns = 20.0

    def _create_run(self, count: int) -> None:
        # A compiled flow is pure user data, like an event object: no
        # stack mapping, no kernel resource.  Creation is one dispatch
        # per flow to run the entry state up to its first suspend.
        self.processor.charge_run(self.profile.event_dispatch_ns
                                  + self.continuation_ns, count)
        # No payload object at all: ``flows`` holds ``None`` per flow, so
        # a million flows allocate nothing here beyond the list's slots
        # — the mechanism's whole argument.
        self.flows += repeat(None, count)

    def _destroy_run(self) -> None:
        self.flows.clear()

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One kernel dispatch into a state function via the trampoline."""
        n = n_flows if n_flows is not None else self.n_flows
        return (self.profile.event_dispatch_ns + self.continuation_ns
                + self.cache_penalty_ns(n))
