"""Direct tests of the UThread public API."""

import pytest

from repro.core.thread import ThreadState
from repro.errors import ThreadError
from tests.core.conftest import make_cluster


def make_thread(body=None, technique="isomalloc", **kw):
    cl, scheds, mig, _ = make_cluster(1, technique=technique, **kw)
    t = scheds[0].create(body or (lambda th: iter(())), name="t")
    return cl, scheds[0], t


def test_names_and_repr():
    cl, sched, t = make_thread()
    assert t.name == "t"
    assert "t" in repr(t)
    anon = sched.create(lambda th: iter(()))
    assert anon.name.startswith("t0.")


def test_read_write_word_via_heap():
    done = []

    def body(th):
        a = th.malloc(32)
        th.write(a, b"0123456789abcdef")
        assert th.read(a + 4, 4) == b"4567"
        th.write_word(a + 16, 0xFEEDFACE)
        assert th.read_word(a + 16) == 0xFEEDFACE
        th.free(a)
        done.append(True)
        yield "yield"

    cl, sched, t = make_thread(body)
    sched.run()
    assert done == [True]


def test_alloca_returns_descending_addresses():
    out = []

    def body(th):
        a = th.alloca(64)
        b = th.alloca(64)
        out.extend([a, b, th.stack.used_bytes])
        yield "yield"

    cl, sched, t = make_thread(body)
    sched.run()
    a, b, used = out
    assert b == a - 64                 # stack grows downward
    assert used == 128
    assert t.stack.base <= b < a < t.stack.top


def test_stack_reads_route_through_manager():
    """Reads of the thread's own stack work even when another thread owns
    the single stack address (non-isomalloc techniques)."""
    addrs = {}

    def body(th, tag):
        cell = th.alloca(8)
        th.write_word(cell, 1000 + tag)
        addrs[tag] = cell
        yield "suspend"
        addrs[(tag, "read")] = th.read_word(cell)

    cl, scheds, mig, _ = make_cluster(1, technique="memory_alias")
    sched = scheds[0]
    t1 = sched.create(lambda th: body(th, 1))
    t2 = sched.create(lambda th: body(th, 2))
    sched.run()
    # Both threads use the same VA for their cell; reads disambiguate.
    assert addrs[1] == addrs[2]
    for t in (t1, t2):
        sched.awaken(t)
    sched.run()
    assert addrs[(1, "read")] == 1001
    assert addrs[(2, "read")] == 1002


def test_free_requires_slot():
    def body(th):
        with pytest.raises(ThreadError):
            th.free(0x1234)
        yield "yield"

    cl, scheds, mig, _ = make_cluster(1, technique="stack_copy")
    scheds[0].create(body)
    scheds[0].run()


def test_step_after_finish_reports_exit():
    cl, sched, t = make_thread()
    sched.run()
    assert t.state is ThreadState.FINISHED
    assert t.step() == "exit"          # idempotent on a finished body


def test_resume_value_plumbed_into_generator():
    got = []

    def body(th):
        value = yield "suspend"
        got.append(value)

    cl, sched, t = make_thread(body)
    sched.run()
    t.resume_value = "handed-in"
    sched.awaken(t)
    sched.run()
    assert got == ["handed-in"]


def test_work_accounting():
    def body(th):
        th.charge(123.0)
        yield "yield"
        th.charge(877.0)

    cl, sched, t = make_thread(body)
    sched.run()
    assert t.work_ns == 1000.0
    assert t.switches == 2


def test_step_sends_a_pending_value_then_plain_nexts():
    """``step`` resumes with ``next`` unless a value is pending; the
    value is delivered exactly once."""
    got = []

    def body(th):
        got.append((yield "suspend"))
        got.append((yield "suspend"))

    cl, sched, t = make_thread(body)
    assert t.step() == "suspend"           # start: runs to the first yield
    t.resume_value = ("payload", 1)
    assert t.step() == "suspend"
    assert t.resume_value is None
    assert t.step() == "exit"
    assert got == [("payload", 1), None]


def test_step_on_a_plain_iterator_body_drops_the_pending_value():
    """A body without the ``send`` protocol just advances; a pending
    ``resume_value`` is consumed, not delivered and not an error."""
    cl, sched, t = make_thread(lambda th: iter(["suspend", "yield"]))
    assert t.step() == "suspend"
    t.resume_value = "ignored"
    assert t.step() == "yield"
    assert t.resume_value is None
    assert t.step() == "exit"
