"""Tests for the Structured Dagger driver (standalone, no runtime)."""

import pytest

from repro.charm.sdag import Atomic, Overlap, SdagDriver, When
from repro.errors import SdagError


def drive(genfn, *msgs, start_first=True):
    """Helper: run a generator under a driver, feeding messages in order."""
    log = []
    driver = SdagDriver(genfn(log))
    if start_first:
        driver.start()
    for name, payload in msgs:
        driver.deliver(name, payload)
    return log, driver


def test_single_when():
    def gen(log):
        v = yield When("ping")
        log.append(v)

    log, driver = drive(gen, ("ping", 42))
    assert log == [42]
    assert driver.finished


def test_when_blocks_until_message():
    def gen(log):
        log.append("before")
        v = yield When("data")
        log.append(v)

    log = []
    driver = SdagDriver(gen(log))
    driver.start()
    assert log == ["before"]
    assert not driver.finished
    assert driver.waiting_on == ["data"]
    driver.deliver("data", "payload")
    assert log == ["before", "payload"]


def test_overlap_any_order():
    """The Figure 1 semantics: left/right strips in any arrival order."""
    def gen(log):
        left, right = yield Overlap(When("left"), When("right"))
        log.append((left, right))

    # Declaration order is preserved even when arrival order is reversed.
    log, _ = drive(gen, ("right", "R"), ("left", "L"))
    assert log == [("L", "R")]
    log, _ = drive(gen, ("left", "L"), ("right", "R"))
    assert log == [("L", "R")]


def test_messages_buffered_before_wait():
    """A message can arrive before the when that consumes it."""
    def gen(log):
        log.append("phase1")
        a = yield When("a")
        b = yield When("b")
        log.append((a, b))

    log = []
    driver = SdagDriver(gen(log))
    driver.start()
    driver.deliver("b", 2)      # early for the second when
    assert not driver.finished
    driver.deliver("a", 1)
    assert log == ["phase1", (1, 2)]
    assert driver.finished


def test_when_count():
    def gen(log):
        vals = yield When("chunk", count=3)
        log.append(vals)

    log, _ = drive(gen, ("chunk", 1), ("chunk", 2), ("chunk", 3))
    assert log == [[1, 2, 3]]


def test_iteration_loop():
    """for-loop over when: the stencil's outer iteration structure."""
    def gen(log):
        for i in range(3):
            v = yield When("step")
            log.append((i, v))

    log, driver = drive(gen, ("step", "a"), ("step", "b"), ("step", "c"))
    assert log == [(0, "a"), (1, "b"), (2, "c")]
    assert driver.finished


def test_atomic_block():
    def gen(log):
        v = yield Atomic(lambda: 99)
        log.append(v)
        w = yield When("x")
        log.append(w)

    log, _ = drive(gen, ("x", 1))
    assert log == [99, 1]


def test_same_name_fifo_order():
    def gen(log):
        a = yield When("m")
        b = yield When("m")
        log.append((a, b))

    log, _ = drive(gen, ("m", "first"), ("m", "second"))
    assert log == [("first", "second")]


def test_overlap_with_counts():
    def gen(log):
        pair = yield Overlap(When("a", count=2), When("b"))
        log.append(pair)

    log, _ = drive(gen, ("b", "B"), ("a", 1), ("a", 2))
    assert log == [([1, 2], "B")]


def test_a_message_after_finish_waits_for_the_next_method():
    """The buffer is the chare's, not one method's: what arrives after a
    continuation returns is taken by the next one."""
    def gen(log):
        log.append((yield When("once")))

    log, driver = drive(gen, ("once", 1))
    assert driver.finished
    driver.deliver("once", 2)
    assert list(driver.buffers["once"]) == [2]
    driver.start(gen(log))
    assert log == [1, 2]
    assert driver.finished and not driver.buffers["once"]


@pytest.mark.parametrize("unblock", ["start", "when"])
def test_ten_thousand_buffered_messages_drain_in_one_loop(unblock):
    """Each buffered message a continuation takes is one turn of one loop,
    not one more frame on the stack: 10 000 already buffered drain when
    the method starts, or when the ``when`` holding them back is met."""
    n = 10_000
    got = []

    def gen():
        if unblock == "when":
            yield When("go")
        for _ in range(n):
            got.append((yield When("m")))

    driver = SdagDriver(gen())
    if unblock == "when":
        driver.start()
    for i in range(n):
        driver.deliver("m", i)
    assert got == []
    if unblock == "when":
        driver.deliver("go", None)
    else:
        driver.start()
    assert got == list(range(n))
    assert driver.finished


def test_bad_yield_rejected():
    def gen(log):
        yield "not-a-directive"

    driver = SdagDriver(gen([]))
    with pytest.raises(SdagError, match="SDAG method 'gen' yielded "
                       "'not-a-directive'"):
        driver.start()
    assert driver.finished and driver.waiting_on == []


def test_empty_overlap_rejected():
    with pytest.raises(SdagError):
        Overlap()


def test_stencil_lifecycle_shape():
    """The full Figure 1 program shape: iterate { send; overlap; work }."""
    sent, worked = [], []

    def lifecycle(log):
        for i in range(2):
            sent.append(i)                      # atomic: sendStrips
            left, right = yield Overlap(When("from_left"),
                                        When("from_right"))
            worked.append((i, left, right))     # atomic: doWork

    driver = SdagDriver(lifecycle([]))
    driver.start()
    # Iteration 0: right arrives first.
    driver.deliver("from_right", "r0")
    driver.deliver("from_left", "l0")
    # Iteration 1: left first — and an early message for the next round
    # would be buffered, not lost.
    driver.deliver("from_left", "l1")
    driver.deliver("from_right", "r1")
    assert sent == [0, 1]
    assert worked == [(0, "l0", "r0"), (1, "l1", "r1")]
    assert driver.finished
