"""Tests for the Converse-style user-level thread scheduler."""

import pytest

from repro.core.thread import ThreadState
from repro.errors import SchedulerError, ThreadError
from tests.core.conftest import make_cluster


def test_create_and_run_one_thread():
    cl, scheds, _, _ = make_cluster(1)
    log = []

    def body(th):
        log.append("a")
        yield "yield"
        log.append("b")

    t = scheds[0].create(body)
    assert t.state is ThreadState.READY
    scheds[0].run()
    assert log == ["a", "b"]
    assert t.state is ThreadState.FINISHED
    assert scheds[0].threads_finished == 1


def test_round_robin_interleaving():
    """FIFO ready queue: the paper's 'circular linked list of runnable
    threads' gives strict round-robin interleaving."""
    cl, scheds, _, _ = make_cluster(1)
    log = []

    def body(th, tag):
        for i in range(3):
            log.append((tag, i))
            yield "yield"

    for tag in "xyz":
        scheds[0].create(lambda th, tag=tag: body(th, tag))
    scheds[0].run()
    assert log == [("x", 0), ("y", 0), ("z", 0),
                   ("x", 1), ("y", 1), ("z", 1),
                   ("x", 2), ("y", 2), ("z", 2)]


def test_suspend_awaken():
    cl, scheds, _, _ = make_cluster(1)
    log = []

    def sleeper(th):
        log.append("sleep")
        yield "suspend"
        log.append("woke")

    t = scheds[0].create(sleeper)
    scheds[0].run()
    assert log == ["sleep"]
    assert t.state is ThreadState.SUSPENDED
    scheds[0].awaken(t)
    scheds[0].run()
    assert log == ["sleep", "woke"]


def test_awaken_non_suspended_rejected():
    cl, scheds, _, _ = make_cluster(1)
    t = scheds[0].create(lambda th: iter(()))
    with pytest.raises(ThreadError):
        scheds[0].awaken(t)              # READY, not SUSPENDED


def test_unknown_directive_raises():
    cl, scheds, _, _ = make_cluster(1)

    def bad(th):
        yield ("warp", 9)

    scheds[0].create(bad)
    with pytest.raises(SchedulerError):
        scheds[0].run()


def test_unqueue_cancels_the_threads_own_resumption():
    cl, scheds, _, _ = make_cluster(1)
    ran = []

    def body(th):
        ran.append(th.name)
        yield "exit"

    scheds[0].create(body, name="keep")
    gone = scheds[0].create(body, name="gone")
    assert scheds[0].unqueue(gone)
    assert not scheds[0].unqueue(gone)      # nothing left to cancel
    assert len(scheds[0].kernel) == 1
    assert scheds[0].run() == 1
    assert ran == ["keep"]


def test_context_switch_charges_time():
    cl, scheds, _, _ = make_cluster(1)
    before = cl[0].now

    def body(th):
        for _ in range(10):
            yield "yield"

    scheds[0].create(body)
    scheds[0].run()
    assert cl[0].now > before
    assert scheds[0].context_switches == 11


def test_run_with_switch_budget():
    cl, scheds, _, _ = make_cluster(1)

    def spinner(th):
        while True:
            yield "yield"

    scheds[0].create(spinner)
    n = scheds[0].run(max_switches=5)
    assert n == 5
    assert len(scheds[0].kernel) == 1      # still runnable


def test_step_one():
    cl, scheds, _, _ = make_cluster(1)
    log = []

    def body(th):
        log.append(1)
        yield "yield"
        log.append(2)

    scheds[0].create(body)
    assert scheds[0].step_one()
    assert log == [1]
    assert scheds[0].step_one()
    assert not scheds[0].step_one()


def test_thread_charge_accumulates_work():
    cl, scheds, _, _ = make_cluster(1)

    def worker(th):
        th.charge(5_000)
        yield "yield"
        th.charge(7_000)

    t = scheds[0].create(worker)
    scheds[0].run()
    assert t.work_ns == 12_000


def test_malloc_requires_slot():
    cl, scheds, _, _ = make_cluster(1, technique="memory_alias")

    def body(th):
        with pytest.raises(ThreadError):
            th.malloc(64)
        yield "yield"

    scheds[0].create(body)
    scheds[0].run()


def test_many_threads_isomalloc():
    """User-level threads scale to large counts (Section 4.1 claim)."""
    cl, scheds, _, _ = make_cluster(1, slot_bytes=64 * 1024,
                                    stack_bytes=8 * 1024)
    done = []

    def body(th, i):
        yield "yield"
        done.append(i)

    for i in range(500):
        scheds[0].create(lambda th, i=i: body(th, i))
    scheds[0].run()
    assert len(done) == 500


def test_registers_preserved_across_switches():
    """With swap emulation, register values survive suspension because they
    are pushed to (and popped from) the thread's own simulated stack."""
    cl, scheds, _, _ = make_cluster(1, emulate_swap=True)
    values = []

    def body(th, v):
        th.scheduler.machine_regs["ebx"] = v
        yield "yield"
        values.append((v, th.scheduler.machine_regs["ebx"]))

    scheds[0].create(lambda th: body(th, 0xAAAA))
    scheds[0].create(lambda th: body(th, 0xBBBB))
    scheds[0].run()
    assert values == [(0xAAAA, 0xAAAA), (0xBBBB, 0xBBBB)]


def test_got_swapped_per_thread():
    """Each privatized thread sees its own globals across switches."""
    cl, scheds, _, _ = make_cluster(
        1, globals_decl=[("counter", 8)])
    results = {}

    def body(th, tag, v):
        th.global_write_int("counter", v)
        yield "yield"
        yield "yield"
        results[tag] = th.global_read_int("counter")

    scheds[0].create(lambda th: body(th, "a", 10), privatize_globals=True)
    scheds[0].create(lambda th: body(th, "b", 20), privatize_globals=True)
    scheds[0].run()
    assert results == {"a": 10, "b": 20}


def test_unprivatized_threads_race_on_globals():
    """Without privatization the paper's global-variable hazard appears."""
    cl, scheds, _, _ = make_cluster(1, globals_decl=[("counter", 8)])
    results = {}
    reg = scheds[0].globals_registry

    def body(th, tag, v):
        reg.write_int("counter", v)
        yield "yield"
        results[tag] = reg.read_int("counter")

    scheds[0].create(lambda th: body(th, "a", 10))
    scheds[0].create(lambda th: body(th, "b", 20))
    scheds[0].run()
    # Thread a reads thread b's write: the race is real.
    assert results["a"] == 20


def test_exception_in_body_propagates():
    cl, scheds, _, _ = make_cluster(1)

    def bad(th):
        yield "yield"
        raise ValueError("boom")

    scheds[0].create(bad)
    with pytest.raises(ValueError):
        scheds[0].run()
