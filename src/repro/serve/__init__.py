"""repro.serve — the restartable sweep service.

The paper's virtualization argument, applied to a *service*: because
:mod:`repro.exec` cells are byte-deterministic — a cell's result is a
pure function of ``(runner, params, seed)``, independent of where and
when it runs — two identical submissions are one computation, and
caching is semantics-preserving rather than best-effort.  This package
is the long-running front end that exploits that:

* :class:`SweepService` — an asyncio control plane accepting
  newline-JSON sweep submissions on a local Unix socket, layered
  *above* the deterministic executor (never inside it);
* a **sharded** content-hash :class:`~repro.exec.cache.ResultCache`
  dedupes cells across submissions, both against disk and against
  computations still in flight;
* a fsync'd, write-rename-rotated :class:`SubmissionJournal` makes the
  service restartable: killed mid-sweep, it replays pending
  submissions on startup and resumes from its cache hits;
* progress streams to any number of clients by bridging the executor's
  ``exec.sweep.*`` / ``exec.cell.*`` hook-bus channels onto the socket;
* :class:`ServeClient` is the blocking client helper
  (``repro.serve.client``), and ``python -m repro.serve`` the entry
  point.

Service counters (submissions, dedupe hits, journal replays, ...) live
in a :class:`~repro.obs.metrics.MetricsRegistry` served by the
``stats`` op; the cache-hit fast path is timed end to end by the
``serve_chaos`` workload of ``python3 perf/run.py``.
"""

from repro.serve.client import ServeClient, wait_until_up
from repro.serve.journal import SubmissionJournal
from repro.serve.protocol import (PROTOCOL_VERSION, ProtocolError,
                                  cell_to_wire, cells_from_wire, decode,
                                  encode, result_to_wire, spec_from_wire)
from repro.serve.service import SweepService

__all__ = [
    "PROTOCOL_VERSION", "ProtocolError",
    "encode", "decode", "cell_to_wire", "cells_from_wire",
    "result_to_wire", "spec_from_wire",
    "SubmissionJournal",
    "SweepService",
    "ServeClient", "wait_until_up",
]
