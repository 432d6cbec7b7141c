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
  ``migration`` / ``checkpoint`` entries.

The entries are the run's one record: no hook counts anything.  The
registry's run instruments are filled by :meth:`RunObserver.finalize`
(which ``dump`` calls): :func:`repro.obs.report.fold_metrics`, the
report's own folds, over the entries added since the previous call.

Everything follows the hook bus's zero-cost-when-off discipline: an
unattached observer costs the kernels nothing but the one ``hot`` bool
they already check, and :meth:`RunObserver.detach` restores exactly that
state.  Nothing here mutates the run — subscribers return every filtered
value unchanged — so fault-injection determinism and chaos fingerprints
are identical with or without an observer attached (pinned by tests).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from repro.kernel import KernelTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import fold_metrics

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
        An existing :class:`MetricsRegistry` to add this run to, or
        ``None`` for a fresh one.
    """

    def __init__(self, cluster, schedulers=(),
                 registry: Optional[MetricsRegistry] = None):
        super().__init__()
        self.registry = registry or MetricsRegistry()
        self._procs = cluster.processors
        #: ``busy``/``clock`` map keys, one string per processor for the
        #: whole run.
        self._labels = [str(i) for i in range(len(self._procs))]
        self._last_busy: Optional[List[float]] = None
        #: The observed kernels, weakly: their hook buses hold this
        #: observer, so a strong reference back would be a cycle.
        self._cluster_kernel = weakref.ref(cluster.queue)
        self._thread_kernels = [weakref.ref(s.kernel) for s in schedulers]
        self._folded = 0  # entries finalize() has folded so far
        fold_metrics([], self.registry)  # create the run instruments

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
        cluster_kernel = self._cluster_kernel()
        super().attach(kernel or cluster_kernel)
        self._last_busy = [p.busy_ns for p in self._procs]
        #: Busy time already on the clocks when observation began (e.g.
        #: thread-creation costs charged at runtime construction); the
        #: trace attributes everything *after* this baseline, so
        #: ``sum(busy maps) == busy_ns - busy_at_attach`` exactly.
        self.busy_at_attach = tuple(self._last_busy)
        for ref in self._thread_kernels:
            hooks = ref().hooks
            hooks.subscribe("on_dispatch_begin", self._on_thread_begin)
            hooks.subscribe("on_dispatch_end", self._on_end)
        for channel, fn in self._channels():
            cluster_kernel.hooks.subscribe(channel, fn)
        return self

    def detach(self) -> None:
        """Unsubscribe everywhere; every kernel's hook bus goes cold."""
        if self._kernel is not None:
            for ref in self._thread_kernels:
                k = ref()
                if k is not None:
                    k.hooks.unsubscribe("on_dispatch_begin",
                                        self._on_thread_begin)
                    k.hooks.unsubscribe("on_dispatch_end", self._on_end)
            cluster_kernel = self._cluster_kernel()
            if cluster_kernel is not None:
                for channel, fn in self._channels():
                    cluster_kernel.hooks.unsubscribe(channel, fn)
        super().detach()

    def _channels(self):
        return (("net.send", self._on_net_send),
                ("migration.done", self._on_migration_done),
                ("checkpoint.write", self._on_checkpoint))

    # -- dispatch hooks --------------------------------------------------

    def _charges(self) -> Optional[tuple]:
        """``(busy, clock)`` maps of every processor charged since the
        last call, or ``None`` when none was."""
        busy = self._last_busy
        if busy is None:
            return None
        labels = self._labels
        busy_map: Dict[str, float] = {}
        clock_map: Dict[str, float] = {}
        for i, p in enumerate(self._procs):
            delta = p.busy_ns - busy[i]
            if delta:
                label = labels[i]
                busy_map[label] = delta
                clock_map[label] = p.now
                busy[i] = p.busy_ns
        return (busy_map, clock_map) if busy_map else None

    def _flush_outside(self, t: float) -> None:
        """Attribute busy time charged *outside* any observed dispatch.

        The runtime driver charges processors directly at points no
        kernel dispatches (coordinated checkpoint barriers, recovery
        rebuilds).  Flushing those deltas into their own ``charge``
        entries — rather than silently re-baselining past them — keeps
        the trace's invariant exact: summing every entry's ``busy`` map
        reproduces each processor's ``busy_ns`` to the nanosecond.
        """
        charges = self._charges()
        if charges is not None:
            self.entries.append({"ev": "charge", "t": t,
                                 "busy": charges[0], "clock": charges[1]})

    def _on_begin(self, kernel, ev) -> None:
        # Charges since the last dispatch ended belong to the driver,
        # not to this event: flush them before baselining.
        self._flush_outside(ev.time)
        super()._on_begin(kernel, ev)

    def _on_thread_begin(self, kernel, ev) -> None:
        # A thread kernel's dispatch gets no ``begin`` entry of its own.
        self._flush_outside(ev.time)

    def _on_end(self, kernel, ev) -> None:
        # One entry schema for the cluster and thread kernels alike.
        super()._on_end(kernel, ev)
        charges = self._charges()
        if charges is not None:
            entry = self.entries[-1]
            entry["busy"], entry["clock"] = charges

    # -- channel subscribers (all pass their value through unchanged) ---

    def _on_net_send(self, arrivals, msg=None, **ctx):
        if msg is not None:
            self.entries.append({
                "ev": "send", "t": msg.send_time, "src": msg.src,
                "dst": msg.dst, "bytes": msg.size_bytes, "tag": msg.tag})
        return arrivals

    def _on_migration_done(self, payload, **ctx):
        entry = {"ev": "migration"}
        entry.update(payload)
        self.entries.append(entry)
        return payload

    def _on_checkpoint(self, blob, key=None, **ctx):
        self.entries.append({"ev": "checkpoint", "key": key,
                             "bytes": len(blob)})
        return blob

    # -- finalization ---------------------------------------------------

    def finalize(self) -> MetricsRegistry:
        """Fold the run into the registry; returns it.

        Each entry is folded once, however often this is called (mid-run
        included); the gauges are overwritten with the processors' state.
        """
        r = self.registry
        makespan = max((p.now for p in self._procs), default=0.0)
        self._flush_outside(makespan)  # tail charges after the last event
        fold_metrics(self.entries[self._folded:], r)
        self._folded = len(self.entries)
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
