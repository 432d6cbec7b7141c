"""The run observer: one tracer + one metrics registry for a whole machine.

:class:`RunObserver` extends the kernel's :class:`KernelTracer` across a
full simulated run.  The base tracer watches one kernel; a run is many —
the cluster's network/timer kernel plus one Cth thread kernel per
processor — and the interesting numbers (per-PE busy time, message
volume, migrations) live on the runtime channels the kernels publish.
The observer therefore:

* attaches the inherited tracer to the **cluster kernel** (full
  schedule/begin/end/idle fidelity, exactly the KernelTracer schema);
* additionally subscribes its dispatch hooks on every **thread kernel**,
  recording their ``end`` entries into the same JSON-lines stream;
* attributes **per-PE busy time** to events: processor ``busy_ns`` is
  snapshotted around every dispatch, and each ``end`` entry carries a
  ``busy`` map (``pe -> ns charged``) and a ``clock`` map (``pe ->
  local virtual time``) for whichever processors advanced — the fields
  the Projections-style report integrates into utilization profiles and
  imbalance timelines.  Work the runtime driver charges outside any
  dispatch (checkpoint barriers, recovery) is flushed into standalone
  ``charge`` entries, so the per-entry ``busy`` maps sum exactly to
  every processor's final ``busy_ns``;
* subscribes the sanctioned channels — ``net.send``,
  ``migration.done``, ``checkpoint.write`` — recording ``send`` /
  ``migration`` / ``checkpoint`` entries and populating the
  :class:`~repro.obs.metrics.MetricsRegistry`.

Everything follows the hook bus's zero-cost-when-off discipline: an
unattached observer costs the kernels nothing but the one ``hot`` bool
they already check, and :meth:`RunObserver.detach` restores exactly that
state.  Nothing here mutates the run — subscribers return every filtered
value unchanged — so fault-injection determinism and chaos fingerprints
are identical with or without an observer attached (pinned by tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.kernel import KernelTracer
from repro.obs.metrics import (BYTE_BUCKETS, MetricsRegistry,
                               TIME_NS_BUCKETS)

__all__ = ["RunObserver"]


class RunObserver(KernelTracer):
    """Metrics + machine-wide trace for one :class:`Cluster` run.

    Parameters
    ----------
    cluster:
        The simulated machine whose kernel and channels to observe.
    schedulers:
        Optional per-PE :class:`CthScheduler`\\ s; their thread kernels'
        dispatches are folded into the same trace (context switches and
        the busy time charged by thread slices).
    registry:
        An existing :class:`MetricsRegistry` to populate, or ``None``
        for a fresh one.
    """

    def __init__(self, cluster, schedulers=(),
                 registry: Optional[MetricsRegistry] = None):
        super().__init__()
        self.cluster = cluster
        self.schedulers = list(schedulers)
        self.registry = registry or MetricsRegistry()
        self._procs = cluster.processors
        self._last_busy: Optional[List[float]] = None
        self._thread_kernels = [s.kernel for s in self.schedulers]
        self._attached_extra: List[Any] = []
        self._channel_subs: List[tuple] = []
        r = self.registry
        self._c_dispatched = r.counter("kernel.dispatched")
        self._c_switches = r.counter("kernel.switches")
        self._c_msgs = r.counter("net.messages")
        self._c_net_bytes = r.counter("net.bytes")
        self._h_msg_bytes = r.histogram("net.msg_bytes", BYTE_BUCKETS)
        self._h_latency = r.histogram("net.latency_ns", TIME_NS_BUCKETS)
        self._c_mig_done = r.counter("migration.completed")
        self._c_mig_ret = r.counter("migration.returned")
        self._c_mig_bytes = r.counter("migration.bytes")
        self._c_ckpt = r.counter("checkpoint.writes")
        self._c_ckpt_bytes = r.counter("checkpoint.bytes")

    @classmethod
    def for_ampi(cls, rt, registry: Optional[MetricsRegistry] = None
                 ) -> "RunObserver":
        """Observer over an :class:`AmpiRuntime`'s whole machine.

        Also points the runtime's LB database at the same registry, so
        every rebalance window publishes its imbalance reading.
        """
        obs = cls(rt.cluster, rt.schedulers, registry=registry)
        rt.db.attach_metrics(obs.registry)
        return obs

    # -- attachment -----------------------------------------------------

    def attach(self, kernel=None) -> "RunObserver":
        """Attach to the cluster kernel, thread kernels, and channels."""
        super().attach(kernel or self.cluster.queue)
        self._last_busy = [p.busy_ns for p in self._procs]
        #: Busy time already on the clocks when observation began (e.g.
        #: thread-creation costs charged at runtime construction); the
        #: trace attributes everything *after* this baseline, so
        #: ``sum(busy maps) == busy_ns - busy_at_attach`` exactly.
        self.busy_at_attach = tuple(self._last_busy)
        for k in self._thread_kernels:
            k.hooks.subscribe("on_dispatch_begin", self._on_begin)
            k.hooks.subscribe("on_dispatch_end", self._on_end)
            self._attached_extra.append(k)
        bus = self.cluster.queue.hooks
        for channel, fn in (("net.send", self._on_net_send),
                            ("migration.done", self._on_migration_done),
                            ("checkpoint.write", self._on_checkpoint)):
            bus.subscribe(channel, fn)
            self._channel_subs.append((bus, channel, fn))
        return self

    def detach(self) -> None:
        """Unsubscribe everywhere; every kernel's hook bus goes cold."""
        for k in self._attached_extra:
            k.hooks.unsubscribe("on_dispatch_begin", self._on_begin)
            k.hooks.unsubscribe("on_dispatch_end", self._on_end)
        self._attached_extra = []
        for bus, channel, fn in self._channel_subs:
            bus.unsubscribe(channel, fn)
        self._channel_subs = []
        super().detach()

    # -- dispatch hooks --------------------------------------------------

    def _flush_outside(self, t: float) -> None:
        """Attribute busy time charged *outside* any observed dispatch.

        The runtime driver charges processors directly at points no
        kernel dispatches (coordinated checkpoint barriers, recovery
        rebuilds).  Flushing those deltas into their own ``charge``
        entries — rather than silently re-baselining past them — keeps
        the trace's invariant exact: summing every entry's ``busy`` map
        reproduces each processor's ``busy_ns`` to the nanosecond.
        """
        busy = self._last_busy
        if busy is None:
            return
        busy_map: Dict[str, float] = {}
        clock_map: Dict[str, float] = {}
        for i, p in enumerate(self._procs):
            delta = p.busy_ns - busy[i]
            if delta:
                busy_map[str(i)] = delta
                clock_map[str(i)] = p.now
                busy[i] = p.busy_ns
        if busy_map:
            self.entries.append({"ev": "charge", "t": t,
                                 "busy": busy_map, "clock": clock_map})

    def _on_begin(self, kernel, ev) -> None:
        # Charges since the last dispatch ended belong to the driver,
        # not to this event: flush them before baselining.
        self._flush_outside(ev.time)
        if kernel is self._kernel:
            super()._on_begin(kernel, ev)

    def _on_end(self, kernel, ev) -> None:
        # One entry schema and one set of aggregate counters for the
        # cluster kernel and the thread kernels alike.
        super()._on_end(kernel, ev)
        entry = self.entries[-1]
        category = ev.category
        skipped = entry.get("skipped", False)
        if not skipped:
            self._c_dispatched.inc()
            if category == "cth.resume":
                self._c_switches.inc()
            if (category and category.startswith("net.")
                    and "sent" in entry):
                self._h_latency.observe(ev.time - entry["sent"])
        busy = self._last_busy
        if busy is not None:
            busy_map: Dict[str, float] = {}
            clock_map: Dict[str, float] = {}
            for i, p in enumerate(self._procs):
                delta = p.busy_ns - busy[i]
                if delta:
                    busy_map[str(i)] = delta
                    clock_map[str(i)] = p.now
                    busy[i] = p.busy_ns
            if busy_map:
                entry["busy"] = busy_map
                entry["clock"] = clock_map

    # -- channel subscribers (all pass their value through unchanged) ---

    def _on_net_send(self, arrivals, msg=None, **ctx):
        if msg is not None:
            self._c_msgs.inc()
            self._c_net_bytes.inc(msg.size_bytes)
            self._h_msg_bytes.observe(msg.size_bytes)
            self.entries.append({
                "ev": "send", "t": msg.send_time, "src": msg.src,
                "dst": msg.dst, "bytes": msg.size_bytes, "tag": msg.tag})
        return arrivals

    def _on_migration_done(self, payload, **ctx):
        if payload.get("returned"):
            self._c_mig_ret.inc()
        else:
            self._c_mig_done.inc()
        self._c_mig_bytes.inc(payload["bytes"])
        entry = {"ev": "migration"}
        entry.update(payload)
        self.entries.append(entry)
        return payload

    def _on_checkpoint(self, blob, key=None, **ctx):
        self._c_ckpt.inc()
        self._c_ckpt_bytes.inc(len(blob))
        self.entries.append({"ev": "checkpoint", "key": key,
                             "bytes": len(blob)})
        return blob

    # -- finalization ---------------------------------------------------

    def finalize(self) -> MetricsRegistry:
        """Fold end-of-run state into the registry; returns it.

        Safe to call more than once (gauges are overwritten, and the
        per-PE busy integration lives in the trace, not in deltas here).
        """
        r = self.registry
        makespan = max((p.now for p in self._procs), default=0.0)
        self._flush_outside(makespan)  # tail charges after the last event
        r.gauge("run.makespan_ns").set(makespan)
        for p in self._procs:
            r.gauge(f"pe{p.id}.busy_ns").set(p.busy_ns)
            r.gauge(f"pe{p.id}.util").set(
                p.busy_ns / makespan if makespan else 0.0)
            r.gauge(f"pe{p.id}.messages_sent").set(p.messages_sent)
        return r

    def dump(self, path: str) -> int:
        self.finalize()
        return super().dump(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RunObserver {len(self.entries)} entries over "
                f"{1 + len(self._thread_kernels)} kernel(s)>")
