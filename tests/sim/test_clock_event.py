"""Unit tests for a processor's clock and the kernel surface the cluster drives.

``Cluster.queue`` is a bare :class:`~repro.kernel.EventKernel`; these
are the sim-side expectations of it.  Three former cases were dropped as
duplicates of ``tests/kernel/test_kernel.py``: FIFO ties
(``test_time_order_with_fifo_ties``), cancellation
(``test_cancelled_events_never_fire``) and ``until``
(``test_until_leaves_later_events_queued``).
"""

import pytest

from repro.errors import ReproError
from repro.kernel import EventKernel
from repro.sim import Cluster


def test_clock_advances():
    p = Cluster(1).processors[0]
    assert p.now == 0.0
    assert p.charge(100) == 100.0
    p.charge(0.5)
    assert p.now == 100.5


def test_clock_rejects_negative():
    p = Cluster(1).processors[0]
    with pytest.raises(ReproError):
        p.charge(-1)
    assert p.now == 0.0 and p.busy_ns == 0.0


def test_clock_advance_to_never_goes_backward():
    cluster = Cluster(1)
    p = cluster.processors[0]
    p.charge(50)
    seen = []
    cluster.at(0, 30, lambda: seen.append(p.now))
    cluster.at(0, 80, lambda: seen.append(p.now))
    cluster.run()
    assert seen == [50, 80]


def test_event_order_by_time():
    q = EventKernel()
    log = []
    q.schedule(30, log.append, "c")
    q.schedule(10, log.append, "a")
    q.schedule(20, log.append, "b")
    q.run()
    assert log == ["a", "b", "c"]
    assert q.current_time == 30


def test_schedule_in_past_rejected():
    q = EventKernel()
    q.schedule(10, lambda: None)
    q.run()
    with pytest.raises(ReproError):
        q.schedule(5, lambda: None)


def test_run_max_events():
    q = EventKernel()
    # An event that reschedules itself forever.
    def tick():
        q.schedule(q.current_time + 1, tick)
    q.schedule(0, tick)
    n = q.run(max_events=100)
    assert n == 100


def test_events_scheduled_during_run_are_seen():
    q = EventKernel()
    log = []

    def first():
        log.append("first")
        q.schedule(15, lambda: log.append("nested"))

    q.schedule(10, first)
    q.run()
    assert log == ["first", "nested"]
