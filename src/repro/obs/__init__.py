"""repro.obs — the observability layer: metrics, traces, reports.

The paper's evaluation is a measurement story (per-PE utilization
before/after load balancing, migration cost curves, flow-creation
overheads), so the reproduction carries a first-class observability
layer riding the kernel's hook bus:

* :class:`MetricsRegistry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — deterministic instruments with fixed bucket
  layouts (:mod:`repro.obs.metrics`);
* :class:`RunObserver` — a run-wide :class:`KernelTracer` that also
  watches the thread kernels and the sanctioned runtime channels,
  attributing busy time per PE (:mod:`repro.obs.collect`);
* :func:`build_report` / ``python -m repro.query report <trace>`` — the
  Projections-style post-mortem analyzer (:mod:`repro.obs.report`).

Trace entries are a run's one record: hooks only append them, and every
count (report views, the registry at :meth:`RunObserver.finalize`) is a
fold over them.

Everything here is virtual time and deterministic; host time is measured
from outside the package, by ``python3 perf/run.py`` (judged by
``perf/compare.py``).  Everything is strictly opt-in: with no observer
attached, the kernels run their zero-cost path (one boolean per
dispatch, one dict lookup per published channel) — pinned by the
overhead tests.
"""

from repro.obs.metrics import (BYTE_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, RATIO_BUCKETS,
                               TIME_NS_BUCKETS)
from repro.kernel.trace import load_trace
from repro.obs.collect import RunObserver
from repro.obs.report import build_report, render_report

__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RATIO_BUCKETS",
    "RunObserver",
    "TIME_NS_BUCKETS",
    "build_report",
    "load_trace",
    "render_report",
]
