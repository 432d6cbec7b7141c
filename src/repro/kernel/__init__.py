"""The one event kernel every runtime dispatches through.

The paper's central claim is that threads and events are interchangeable
flows of control over one underlying scheduler.  This package is that
scheduler, made literal: a single deterministic, instrumented event core
(:class:`EventKernel`) with

* one batched, slot-based ready/timed queue — O(1) live-event counting,
  lazy cancellation (dropped at pop), and a ``(time, seq)`` FIFO
  tie-break so simultaneous events always fire in schedule order.  One
  sort-and-pop dispatch loop serves every run, hooks on or off (see
  ``docs/kernel.md``); the frozen pre-fast-path implementation is the
  differential-testing oracle under ``tests/kernel/``;
* a :class:`RunPolicy` object expressing every stop condition the
  runtimes used to hand-roll (``until`` / ``max_events`` / run to
  quiescence);
* a first-class :class:`HookBus` (``on_schedule``, ``on_dispatch_begin``
  / ``on_dispatch_end``, ``on_cancel``, ``on_idle``, ``on_quiescence``
  plus named filter/decision channels) that is the *only* sanctioned
  interception point — fault injection, tracing, and profiling all
  subscribe here instead of wrapping runtime call sites;
* :class:`KernelTracer` — Projections-style structured event logs (JSON
  lines), per-flow timelines, and counter metrics with near-zero cost
  when no subscriber is attached.

Layering (see ``docs/architecture.md``): kernel → flows → runtimes →
workloads.  The simulated cluster's queue (``Cluster.queue``) *is* an
:class:`EventKernel`; the Cth thread scheduler schedules thread
resumptions as kernel events; charm/AMPI message
delivery, SDAG continuations, BigSim, and POSE all dispatch through the
cluster's kernel.
"""

from repro.kernel.hooks import HookBus
from repro.kernel.event import EventKernel, KernelEvent
from repro.kernel.policy import RunPolicy
from repro.kernel.pqueue import MinHeap
from repro.kernel.quiescence import QuiescenceCounter
from repro.kernel.trace import KernelTracer, load_trace

__all__ = [
    "EventKernel",
    "KernelEvent",
    "RunPolicy",
    "HookBus",
    "KernelTracer",
    "load_trace",
    "QuiescenceCounter",
    "MinHeap",
]
