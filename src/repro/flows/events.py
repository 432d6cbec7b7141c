"""Event-driven objects as flows of control (paper Section 2.4)."""

from __future__ import annotations

from typing import Optional

from repro.flows.base import FlowHandle, FlowMechanism

__all__ = ["EventObjectFlow"]


class EventObjectFlow(FlowMechanism):
    """Charm-style event-driven objects.

    "Because suspending and resuming execution is simply a function call,
    the event-driven style can also be very efficient" — a switch here is
    one scheduler dispatch, no register or stack work at all, and an
    object's footprint is just its application data.

    A cost model only: event objects *execute* on :mod:`repro.charm`,
    and :meth:`FlowWorld.spawn` refuses this ``form``.
    """

    label = "event"
    form = "event"
    cache_weight = 0.3          # only the object's own data is re-touched
    #: Modeled per-object state (application data + scheduler entry).
    object_bytes = 256

    def _create(self, index: int) -> FlowHandle:
        # An event-driven object is pure user data: no kernel resource,
        # no stack; just account a small allocation.
        self.processor.charge(self.profile.event_dispatch_ns)
        return FlowHandle(index, payload={"state": 0})

    def _destroy(self, handle: FlowHandle) -> None:
        handle.payload = None

    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """One scheduler dispatch to an object's entry method."""
        n = n_flows if n_flows is not None else self.n_flows
        return self.profile.event_dispatch_ns + self.cache_penalty_ns(n)
