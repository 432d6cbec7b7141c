"""The frozen reference event kernel (differential-testing oracle).

This module is a copy of the pre-fast-path ``repro.kernel.event`` — a
per-event-object binary heap with the original inline run loop.  It
exists solely so the differential harness
(``tests/kernel/test_differential.py``) and the property suite can run
the same randomized schedules through both implementations and assert
identical event orderings, traces, and counters.

Policy: this file only changes when the *kernel contract* changes (a
new public method, a semantic fix that both implementations must
adopt).  Performance work never touches it — that is the whole point.
See ``docs/kernel.md`` ("Differential-harness policy").

One :class:`EventKernel` instance used to back every run loop in the
tree; production code now imports the fast path from
:mod:`repro.kernel.event`.

Determinism contract (preserved bit-for-bit from the pre-kernel loops):

* events fire in ``(time, seq)`` order where ``seq`` is a per-kernel
  insertion counter — simultaneous events run in schedule (FIFO) order;
* cancellation never perturbs the order of surviving events: cancelled
  entries are lazily dropped at the heap top, and the batched sweep
  rebuilds the heap from events whose ``(time, seq)`` keys are unique,
  so pop order is unchanged;
* scheduling strictly before ``current_time`` raises
  :class:`~repro.errors.ReproError` naming the offending callback.

Bookkeeping is O(1): a live-event counter is maintained on
schedule/cancel/pop so ``len(kernel)`` and ``kernel.empty`` never scan
the heap, and a stale counter triggers the compaction sweep only when
cancelled entries dominate.
"""

from __future__ import annotations

import itertools
import weakref
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import ReproError
from repro.kernel.hooks import HookBus
from repro.kernel.policy import RunPolicy
from repro.kernel.pqueue import MinHeap

__all__ = ["KernelEvent", "EventKernel"]

#: Sweep cancelled entries out of the heap once at least this many are
#: stale *and* they make up half the heap — amortized O(1) per cancel.
_SWEEP_MIN_STALE = 64


class KernelEvent:
    """One scheduled event: a callback to fire at a virtual time.

    Events compare by ``(time, seq)`` where ``seq`` is a per-kernel
    insertion counter, so simultaneous events fire in a deterministic
    FIFO order.  ``category`` and ``flow`` are free-form instrumentation
    labels (e.g. ``"net.charm"`` / ``"pe3"``) consumed by the tracer.
    """

    __slots__ = ("time", "seq", "fn", "args", "category", "flow",
                 "cancelled", "fired", "_kernel")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, category: str = "",
                 flow: Optional[str] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.category = category
        self.flow = flow
        self.cancelled = False
        self.fired = False
        #: Weak back-reference to the owning kernel.  Weak on purpose:
        #: a strong reference would put every queued event in a cycle
        #: (kernel → heap → event → kernel), and at bench scale the GC
        #: passes over those cycles cost ~10% of dispatch throughput.
        self._kernel: "Optional[weakref.ref[EventKernel]]" = None

    def cancel(self) -> None:
        """Mark the event so it never fires.  Cancelling an event that
        already fired (or was already cancelled) is a no-op."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        kernel = self._kernel() if self._kernel is not None else None
        if kernel is not None:
            kernel._note_cancel(self)

    def __lt__(self, other: "KernelEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self.cancelled else ""
        cat = f" {self.category}" if self.category else ""
        return f"<Event t={self.time:.1f} #{self.seq}{cat}{flag}>"


class EventKernel:
    """A time-ordered dispatch core with an instrumentation hook bus.

    Parameters
    ----------
    name:
        Instrumentation label (``"sim"``, ``"cth-pe0"``, ...) stamped
        into trace output.
    causality:
        When True (the cluster queue's setting), scheduling an event
        before ``current_time`` is an error — it would break the
        conservative event-order execution.  Thread schedulers turn this
        off: their "time" axis is a priority, not a clock.
    """

    __slots__ = ("name", "causality", "hooks", "current_time",
                 "events_processed", "_heap", "_data", "_counter", "_live",
                 "_stale", "_dispatching", "_skip", "_weakself",
                 "__weakref__")

    def __init__(self, name: str = "kernel", causality: bool = True) -> None:
        self.name = name
        self.causality = causality
        self.hooks = HookBus()
        self.current_time = 0.0
        self.events_processed = 0
        self._heap = MinHeap()
        #: Alias of the heap's backing list — stable for the kernel's
        #: lifetime (rebuild mutates in place), saving an attribute hop
        #: on every schedule/peek/step.
        self._data = self._heap.data
        self._counter = itertools.count()
        self._live = 0          # non-cancelled events in the heap
        self._stale = 0         # cancelled events still in the heap
        self._dispatching = False
        self._skip = False
        self._weakself = weakref.ref(self)

    # -- queue state (all O(1)) -----------------------------------------

    def __len__(self) -> int:
        return self._live

    @property
    def live(self) -> int:
        """Number of live (non-cancelled, unfired) events queued."""
        return self._live

    @property
    def empty(self) -> bool:
        """True when no live events remain."""
        return self._live == 0

    def live_events(self) -> List[KernelEvent]:
        """Snapshot of pending live events in dispatch order (O(n log n);
        for introspection and façades, not the hot path)."""
        return sorted(e for e in self._heap if not e.cancelled)

    # -- scheduling -----------------------------------------------------

    def schedule(self, time: float, fn: Callable[..., Any], *args: Any,
                 category: str = "", flow: Optional[str] = None
                 ) -> KernelEvent:
        """Schedule ``fn(*args)`` to run at virtual time ``time``."""
        if self.causality and time < self.current_time:
            site = getattr(fn, "__qualname__", None) or repr(fn)
            raise ReproError(
                f"cannot schedule event at {time} before current time "
                f"{self.current_time} (causality violation; "
                f"scheduled from {site})"
            )
        # Inline KernelEvent.__init__ (kept in sync with it): schedule
        # is the hottest allocation site in the tree, and the extra call
        # frame alone is measurable against the pre-kernel loop.
        ev = KernelEvent.__new__(KernelEvent)
        ev.time = time
        ev.seq = next(self._counter)
        ev.fn = fn
        ev.args = args
        ev.category = category
        ev.flow = flow
        ev.cancelled = False
        ev.fired = False
        ev._kernel = self._weakself
        heappush(self._data, ev)
        self._live += 1
        hooks = self.hooks
        if hooks.hot and hooks.on_schedule:
            for h in hooks.on_schedule:
                h(self, ev)
        return ev

    def _note_cancel(self, ev: KernelEvent) -> None:
        """Called by :meth:`KernelEvent.cancel` exactly once per event."""
        self._live -= 1
        self._stale += 1
        hooks = self.hooks
        if hooks.hot and hooks.on_cancel:
            for h in hooks.on_cancel:
                h(self, ev)
        # Batched compaction: only when stale entries dominate the heap,
        # so each cancelled event is rebuilt over at most once (amortized
        # O(log n) per cancel).  Keys are unique (time, seq) pairs, so
        # rebuilding cannot reorder the survivors.
        if (self._stale >= _SWEEP_MIN_STALE
                and self._stale * 2 >= len(self._heap)):
            self._heap.rebuild(e for e in self._heap if not e.cancelled)
            self._stale = 0

    # -- dispatch -------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None."""
        raw = self._data
        while raw:
            ev = raw[0]
            if not ev.cancelled:
                return ev.time
            heappop(raw)
            self._stale -= 1
        return None

    def step(self) -> bool:
        """Pop and run the next live event.  Returns False if queue empty."""
        raw = self._data
        while True:
            if not raw:
                return False
            ev = heappop(raw)
            if ev.cancelled:
                self._stale -= 1
                continue
            break
        ev.fired = True
        self._live -= 1
        self.current_time = ev.time
        self.events_processed += 1
        self._skip = False
        self._dispatching = True
        hooks = self.hooks
        hot = hooks.hot
        if hot and hooks.on_dispatch_begin:
            for h in hooks.on_dispatch_begin:
                h(self, ev)
        try:
            ev.fn(*ev.args)
        finally:
            self._dispatching = False
            if hot and hooks.on_dispatch_end:
                for h in hooks.on_dispatch_end:
                    h(self, ev)
        return True

    def skip_current(self) -> None:
        """Declare the event being dispatched void: it counts neither
        against a :class:`RunPolicy` budget nor in ``events_processed``.

        The Cth scheduler uses this when a queued resumption finds its
        thread no longer READY (awoken and run through another path) —
        the pre-kernel loop's ``continue``.
        """
        if not self._dispatching:
            raise ReproError("skip_current() outside event dispatch")
        if not self._skip:
            self._skip = True
            self.events_processed -= 1

    def run(self, policy: Optional[RunPolicy] = None, *,
            until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Dispatch events in order until the policy stops us.

        With no arguments, drains the queue.  ``until``/``max_events``
        are shorthand for the corresponding :class:`RunPolicy` fields.
        Returns the number of events dispatched by this call (skipped
        events are free).

        When the queue drains and the policy allows quiescence
        detection, the ``on_idle`` hooks run first — any of them may
        re-arm work (return True after scheduling) and the loop resumes;
        only when the queue stays empty do the ``on_quiescence`` hooks
        fire and the call return.
        """
        if policy is None:
            policy = RunPolicy(until=until, max_events=max_events)
        processed = 0
        # Hot loop: this inlines peek_time() + step() (kept in sync with
        # them) with the policy's fields as locals — at bench scale the
        # per-event method calls are the difference between matching the
        # pre-kernel loop's throughput and trailing it by ~10%.  ``raw``
        # stays valid across sweeps because rebuild() mutates in place.
        bound = policy.until
        budget = policy.max_events
        raw = self._data
        hooks = self.hooks
        while True:
            while True:
                if budget is not None and processed >= budget:
                    return processed
                while raw:
                    ev = raw[0]
                    if not ev.cancelled:
                        break
                    heappop(raw)
                    self._stale -= 1
                else:
                    break
                if bound is not None and ev.time > bound:
                    return processed
                heappop(raw)
                ev.fired = True
                self._live -= 1
                self.current_time = ev.time
                self.events_processed += 1
                self._skip = False
                self._dispatching = True
                if hooks.hot and hooks.on_dispatch_begin:
                    for h in hooks.on_dispatch_begin:
                        h(self, ev)
                try:
                    ev.fn(*ev.args)
                finally:
                    self._dispatching = False
                    if hooks.hot and hooks.on_dispatch_end:
                        for h in hooks.on_dispatch_end:
                            h(self, ev)
                if not self._skip:
                    processed += 1
            if not policy.quiescence:
                return processed
            hooks = self.hooks
            pumped = False
            for h in list(hooks.on_idle):
                if h(self):
                    pumped = True
            if pumped and self._live:
                continue
            for h in list(hooks.on_quiescence):
                h(self)
            return processed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<EventKernel {self.name} t={self.current_time:.1f} "
                f"live={self._live} processed={self.events_processed}>")
