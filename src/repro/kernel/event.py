"""The deterministic, instrumented event core — one dispatch loop.

One :class:`EventKernel` instance backs every run loop in the tree: the
simulated cluster's queue (``Cluster.queue`` *is* an ``EventKernel``),
each processor's Cth thread scheduler (thread resumptions are kernel
events), the ``FlowWorld`` of compiled continuations, and — through the
cluster — charm/AMPI delivery, BigSim, and POSE.

Determinism contract (preserved bit-for-bit from the pre-kernel loops,
and pinned against the frozen reference implementation by
``tests/kernel/test_differential.py``):

* events fire in ``(time, seq)`` order where ``seq`` is a per-kernel
  insertion counter — simultaneous events run in schedule (FIFO) order;
* cancellation never perturbs the order of surviving events: a
  cancelled slot is only marked, and dropped when dispatch reaches it;
* scheduling strictly before ``current_time`` raises
  :class:`~repro.errors.ReproError` naming the offending callback.

Storage model
-------------
Instead of a binary heap of per-event objects, pending events are plain
8-slot lists — ``[time, seq, state, fn, args, category, flow, handle]``
— split across two containers:

* ``_data``: unsorted arrivals (append-only between merges);
* ``_batch``: the consume side, sorted **descending** so the earliest
  event sits at the end (``batch[-1]``) where ``list.pop()`` is O(1).

A merge folds ``_data`` into ``_batch`` with one ``list.sort`` — for
the common mostly-ordered arrival pattern Timsort is close to O(n), and
list-vs-list comparison runs entirely in C.  ``seq`` is unique, so the
comparison never reaches the callback slots.  ``state`` is 0 (live),
1 (cancelled), or 2 (fired).

The loop
--------
:meth:`EventKernel._drain` is the only code that fires callbacks;
:meth:`~EventKernel.run`, :meth:`~EventKernel.run_batch` and
:meth:`~EventKernel.step` are stop conditions around it.  Per event it
pops the slot, updates the counters, checks the hook bus's one ``hot``
flag, and calls — the reference kernel's sequence, so hook
subscriptions, ``len()``/``live``/``empty`` and ``events_processed``
are exact at every event on every path.  Popping is what keeps the host
flat: a fired slot (and the args it holds) is freed as soon as its
callback returns, so a long drain of self-reposting flows never carries
its history, and the allocator and the cyclic GC see a steady heap.

:class:`KernelEvent` is a lazily-materialized *view* over a slot
(``schedule()`` returns one eagerly; the bulk
:meth:`EventKernel.post`/:meth:`EventKernel.post_batch` APIs return raw
slots and allocate no handle).  Hooks-off runs therefore allocate
nothing per event beyond the slot itself.

Bookkeeping is O(1) and derived: ``len(kernel)`` is
``posted - fired - cancelled`` from three monotone counters, so nothing
is scanned.

Contract delta vs. the reference kernel (the only one):

* a kernel is **not re-entrant**: ``run()``, ``run_batch()`` and
  ``step()`` share one guard, and calling any of them from inside a
  callback the same kernel is dispatching raises
  :class:`~repro.errors.ReproError` (the reference kernel nests).
  Nothing in the tree nests — the AMPI interleave drives distinct
  kernels from the top level; drive nested work by scheduling events.
  ``peek_time()`` and every scheduling/cancelling call stay legal
  mid-dispatch.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, List, Optional

from repro.errors import ReproError
from repro.kernel.hooks import HookBus
from repro.kernel.policy import RunPolicy

__all__ = ["KernelEvent", "EventKernel"]

# Slot layout indices (a slot is a plain list; see module docstring).
_TIME, _SEQ, _STATE, _FN, _ARGS, _CAT, _FLOW, _HANDLE = range(8)


class KernelEvent:
    """A view handle over one scheduled event slot.

    Events compare by ``(time, seq)`` where ``seq`` is a per-kernel
    insertion counter, so simultaneous events fire in a deterministic
    FIFO order.  ``category`` and ``flow`` are free-form instrumentation
    labels (e.g. ``"net.charm"`` / ``"pe3"``) consumed by the tracer.

    Handles are materialized lazily: the fast bulk APIs return raw
    slots, and a handle is only built when ``schedule()`` is used or a
    hook needs one.  All state lives in the slot, so a handle and its
    kernel always agree.
    """

    __slots__ = ("_item", "_kernel")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, category: str = "",
                 flow: Optional[str] = None):
        self._item = [time, seq, 0, fn, args, category, flow, None]
        self._item[_HANDLE] = self
        #: Weak back-reference to the owning kernel.  Weak on purpose:
        #: a strong reference would put every queued event in a cycle
        #: (kernel → batch → slot → handle → kernel), and at bench
        #: scale the GC passes over those cycles cost ~10% of dispatch
        #: throughput.
        self._kernel: "Optional[weakref.ref[EventKernel]]" = None

    @property
    def time(self) -> float:
        return self._item[_TIME]

    @property
    def seq(self) -> int:
        return self._item[_SEQ]

    @property
    def fn(self) -> Callable[..., Any]:
        return self._item[_FN]

    @property
    def args(self) -> tuple:
        return self._item[_ARGS]

    @property
    def category(self) -> str:
        return self._item[_CAT]

    @property
    def flow(self) -> Optional[str]:
        return self._item[_FLOW]

    @property
    def cancelled(self) -> bool:
        return self._item[_STATE] == 1

    @property
    def fired(self) -> bool:
        return self._item[_STATE] == 2

    def cancel(self) -> None:
        """Mark the event so it never fires.  Cancelling an event that
        already fired (or was already cancelled) is a no-op."""
        item = self._item
        if item[_STATE]:
            return
        kernel = self._kernel() if self._kernel is not None else None
        if kernel is None:
            item[_STATE] = 1
        else:
            kernel.cancel_slot(item)

    def __lt__(self, other: "KernelEvent") -> bool:
        a, b = self._item, other._item
        return (a[_TIME], a[_SEQ]) < (b[_TIME], b[_SEQ])

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
                 "events_processed", "_data", "_batch", "_seq", "_nfired",
                 "_ncancelled", "_dispatching", "_skip", "_running",
                 "_weakself", "__weakref__")

    def __init__(self, name: str = "kernel", causality: bool = True) -> None:
        self.name = name
        self.causality = causality
        self.hooks = HookBus()
        self.current_time = 0.0
        self.events_processed = 0
        self._data: List[list] = []     # unsorted arrivals
        self._batch: List[list] = []    # sorted descending; earliest last
        self._seq = 0                   # total slots ever posted
        self._nfired = 0                # total slots fired
        self._ncancelled = 0            # total slots cancelled
        self._dispatching = False
        self._skip = False
        self._running = False           # inside run() (the one guard)
        self._weakself = weakref.ref(self)

    # -- queue state (all O(1)) -----------------------------------------

    def __len__(self) -> int:
        return self._seq - self._nfired - self._ncancelled

    @property
    def live(self) -> int:
        """Number of live (non-cancelled, unfired) events queued."""
        return self._seq - self._nfired - self._ncancelled

    @property
    def empty(self) -> bool:
        """True when no live events remain."""
        return self._seq - self._nfired - self._ncancelled == 0

    def live_events(self) -> List[KernelEvent]:
        """Snapshot of pending live events in dispatch order (O(n log n);
        for introspection, not the hot path)."""
        items = [it for it in self._batch if not it[_STATE]]
        items += [it for it in self._data if not it[_STATE]]
        items.sort()
        return [it[_HANDLE] or self._handle(it) for it in items]

    # -- scheduling -----------------------------------------------------

    def _handle(self, item: list) -> KernelEvent:
        """Materialize (and memoize) the view handle for a slot."""
        ev = KernelEvent.__new__(KernelEvent)
        ev._item = item
        ev._kernel = self._weakself
        item[_HANDLE] = ev
        return ev

    def _causality_error(self, time: float, fn: Callable[..., Any]) -> ReproError:
        site = getattr(fn, "__qualname__", None) or repr(fn)
        return ReproError(
            f"cannot schedule event at {time} before current time "
            f"{self.current_time} (causality violation; "
            f"scheduled from {site})"
        )

    def post(self, time: float, fn: Callable[..., Any], args: tuple = (),
             category: str = "", flow: Optional[str] = None) -> list:
        """Queue ``fn(*args)`` at ``time``; returns the raw slot.

        The no-handle fast path: allocates only the slot list.  The slot
        is accepted by :meth:`cancel_slot`; wrap it via ``slot[-1]`` /
        :meth:`live_events` only if a :class:`KernelEvent` is needed.
        ``args`` must be a tuple (it is splatted at dispatch).
        """
        if time < self.current_time and self.causality:
            raise self._causality_error(time, fn)
        seq = self._seq
        self._seq = seq + 1
        item = [time, seq, 0, fn, args, category, flow, None]
        self._data.append(item)
        hooks = self.hooks
        if hooks.hot and hooks.on_schedule:
            ev = self._handle(item)
            for h in hooks.on_schedule:
                h(self, ev)
        return item

    def post_batch(self, times: List[float], fn: Callable[..., Any],
                   args_list: List[tuple],
                   flows: List[Optional[str]],
                   category: str = "") -> List[list]:
        """Queue ``fn(*args_list[i])`` at ``times[i]`` under flow label
        ``flows[i]`` for every ``i``, all sharing ``category``; returns
        the raw slots in posted order.

        This is the bulk ingress for flow seeding and barrier release
        (one event per rank, each with its own task and label): the
        slot construction is a single list comprehension and the
        causality check one C-level ``min()`` scan, so per-event cost is
        a fraction of :meth:`post`.
        """
        if len(args_list) != len(times) or len(flows) != len(times):
            raise ReproError(
                f"post_batch: args_list/flows must parallel "
                f"times ({len(times)} times, {len(args_list)} args, "
                f"{len(flows)} flows)")
        seq = self._seq
        items = [[t, s, 0, fn, a, category, fl, None]
                 for s, (t, a, fl) in enumerate(
                     zip(times, args_list, flows), seq)]
        if not items:
            return items
        if self.causality and min(items)[_TIME] < self.current_time:
            earliest = min(items)
            raise self._causality_error(earliest[_TIME], earliest[_FN])
        self._seq = seq + len(items)
        self._data.extend(items)
        hooks = self.hooks
        if hooks.hot and hooks.on_schedule:
            for item in items:
                ev = item[_HANDLE] or self._handle(item)
                for h in hooks.on_schedule:
                    h(self, ev)
        return items

    def schedule(self, time: float, fn: Callable[..., Any], *args: Any,
                 category: str = "", flow: Optional[str] = None
                 ) -> KernelEvent:
        """Schedule ``fn(*args)`` to run at virtual time ``time``."""
        item = self.post(time, fn, args, category, flow)
        return item[_HANDLE] or self._handle(item)

    # -- cancellation ---------------------------------------------------

    def cancel_slot(self, item: list) -> bool:
        """Cancel one slot (as returned by :meth:`post`).  Returns True
        if the slot was live; cancelling a fired or already-cancelled
        slot is a no-op returning False."""
        if item[_STATE]:
            return False
        item[_STATE] = 1
        self._ncancelled += 1
        hooks = self.hooks
        if hooks.hot and hooks.on_cancel:
            ev = item[_HANDLE] or self._handle(item)
            for h in hooks.on_cancel:
                h(self, ev)
        return True

    # -- dispatch -------------------------------------------------------

    def _refill(self) -> None:
        """Merge arrivals into the sorted batch (descending: earliest
        event last, where ``pop()`` is O(1))."""
        data = self._data
        if data:
            batch = self._batch
            if batch:
                data.extend(batch)
                batch.clear()
            data.sort(reverse=True)
            batch[:] = data
            data.clear()

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None."""
        batch = self._batch
        if self._running:
            # Mid-dispatch: scan without mutating — the drain loop owns
            # both containers.
            best = None
            for item in reversed(batch):
                if not item[_STATE]:
                    best = item[_TIME]
                    break
            for item in self._data:
                if not item[_STATE] and (best is None or item[_TIME] < best):
                    best = item[_TIME]
            return best
        self._refill()
        while batch:
            item = batch[-1]
            if not item[_STATE]:
                return item[_TIME]
            batch.pop()
        return None

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

    def step(self) -> bool:
        """Dispatch one event; returns False if the queue drained first.

        Shorthand for ``run(RunPolicy(max_events=1, quiescence=False))``
        — so a skipped event is free, as under every budget.
        """
        return self.run(RunPolicy(max_events=1, quiescence=False)) == 1

    def run_batch(self, max_events: Optional[int] = None) -> int:
        """Dispatch up to ``max_events`` events (all, when None)
        *without* the quiescence protocol.

        Shorthand for ``run(RunPolicy(max_events=..., quiescence=False))``,
        named for callers (the thread→event compiler's emitted loops)
        that own their idle handling.  Returns the number of events
        dispatched (skipped events are free).
        """
        return self.run(RunPolicy(max_events=max_events, quiescence=False))

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

        A kernel is not re-entrant: ``run()``, ``run_batch()`` and
        ``step()`` all enter here, and entering from inside a callback
        this kernel is dispatching raises
        :class:`~repro.errors.ReproError`.  Drive nested work by
        scheduling events.
        """
        if self._running:
            raise ReproError("run() re-entered during run()")
        if policy is None:
            policy = RunPolicy(until=until, max_events=max_events)
        bound = policy.until
        budget = policy.max_events
        processed = 0
        self._running = True
        try:
            while True:
                n, cut = self._drain(
                    bound, None if budget is None else budget - processed)
                processed += n
                if cut or not policy.quiescence:
                    return processed
                # Queue drained: quiescence protocol (hooks may re-arm).
                hooks = self.hooks
                pumped = False
                for h in list(hooks.on_idle):
                    if h(self):
                        pumped = True
                if pumped and self._seq - self._nfired - self._ncancelled:
                    continue
                for h in list(hooks.on_quiescence):
                    h(self)
                return processed
        finally:
            self._running = False

    def _drain(self, bound: Optional[float],
               budget: Optional[int]) -> tuple:
        """The dispatch loop — the only code that fires callbacks.

        Fires live events in ``(time, seq)`` order until the queue is
        empty, the next event lies beyond ``bound``, or ``budget``
        events have counted.  Returns ``(processed, cut)`` where ``cut``
        is True when a bound stopped the loop (work may still be
        queued).
        """
        data = self._data
        batch = self._batch
        hooks = self.hooks
        processed = 0
        self._skip = False      # a callback may have skipped, then raised
        # Lazy merge: arrivals posted during the drain are folded in
        # only when one could sort before the next batch item (strictly
        # earlier time — an equal-time arrival has a higher seq and
        # belongs after the whole batch).  Self-reposting flows — a
        # compiled loop's back edge posts one event per dispatch — would
        # otherwise re-sort the full batch per event: quadratic at 10⁶
        # flows.
        dmin = None
        scanned = 0
        while True:
            if budget is not None and processed >= budget:
                return processed, True
            if data:
                if batch:
                    n = len(data)
                    if scanned < n:       # scan only the new arrivals
                        t = min(data[scanned:])[_TIME]
                        if dmin is None or t < dmin:
                            dmin = t
                        scanned = n
                if not batch or dmin < batch[-1][_TIME]:
                    self._refill()
                    dmin = None
                    scanned = 0
            if not batch:
                return processed, False
            item = batch[-1]
            if item[_STATE]:
                batch.pop()               # cancelled: drop lazily
                continue
            if bound is not None and item[_TIME] > bound:
                return processed, True
            batch.pop()
            item[_STATE] = 2
            self._nfired += 1
            self.current_time = item[_TIME]
            self.events_processed += 1
            self._dispatching = True
            if hooks.hot and hooks.on_dispatch_begin:
                ev = item[_HANDLE] or self._handle(item)
                for h in hooks.on_dispatch_begin:
                    h(self, ev)
            try:
                a = item[_ARGS]
                if a:
                    item[_FN](*a)
                else:
                    item[_FN]()
            finally:
                self._dispatching = False
                if hooks.hot and hooks.on_dispatch_end:
                    ev = item[_HANDLE] or self._handle(item)
                    for h in hooks.on_dispatch_end:
                        h(self, ev)
            if self._skip:
                self._skip = False
            else:
                processed += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<EventKernel {self.name} t={self.current_time:.1f} "
                f"live={self.live} processed={self.events_processed}>")
