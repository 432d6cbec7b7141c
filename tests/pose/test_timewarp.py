"""Tests for the POSE-style Time-Warp engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pup import pup_register
from repro.errors import ReproError
from repro.pose import PoseEngine, Poser
from repro.sim import Cluster


@pup_register
class Recorder(Poser):
    """Appends (vt-tag, data) for every event; optionally forwards."""

    def __init__(self, forward_to=""):
        self.log = []
        self.forward_to = forward_to

    def pup(self, p):
        self.log = p.list_double(self.log)
        self.forward_to = p.str(self.forward_to)

    def on_note(self, data):
        self.log.append(float(data))
        if self.forward_to:
            return [(self.forward_to, "note", data, 1.0)]
        return []


def make_engine(n_pe=2, posers=("a", "b"), forward=None):
    cl = Cluster(n_pe)
    eng = PoseEngine(cl)
    for i, pid in enumerate(posers):
        eng.register(pid, Recorder(forward_to=(forward or {}).get(pid, "")),
                     i % n_pe)
    return cl, eng


# -- basic execution -----------------------------------------------------------

def test_in_order_no_rollbacks():
    cl, eng = make_engine()
    for vt in (1.0, 2.0, 3.0):
        eng.schedule("a", "note", vt, at=vt)
    stats = eng.run()
    assert eng.poser("a").log == [1.0, 2.0, 3.0]
    assert stats.rollbacks == 0
    assert stats.events_processed == 3


def test_straggler_triggers_rollback_and_correct_order():
    """An event behind the poser's clock forces rollback + re-execution;
    the final log is the sequential in-timestamp order anyway."""
    cl, eng = make_engine()
    eng.schedule("a", "note", 10.0, at=10.0)   # arrives first
    eng.schedule("a", "note", 5.0, at=5.0)     # straggler
    stats = eng.run()
    assert eng.poser("a").log == [5.0, 10.0]
    assert stats.rollbacks >= 1
    assert stats.events_rolled_back >= 1


def test_rollback_cascades_through_antimessages():
    """Rolling back a poser cancels the outputs it sent; a downstream
    poser that already processed them rolls back too."""
    cl, eng = make_engine(posers=("hub", "down"), forward={"hub": "down"})
    eng.schedule("hub", "note", 10.0, at=10.0)
    # Let the wrong future propagate all the way before the straggler.
    cl.run()
    assert eng.poser("down").log == [10.0]
    eng.schedule("hub", "note", 5.0, at=5.0)
    stats = eng.run()
    assert eng.poser("hub").log == [5.0, 10.0]
    assert eng.poser("down").log == [5.0, 10.0]
    assert stats.antimessages >= 1
    assert stats.rollbacks >= 2                # hub and down


def test_snapshot_restores_state_exactly():
    """Rollback restores the poser object byte-for-byte via PUP."""
    cl, eng = make_engine()
    eng.schedule("a", "note", 100.0, at=100.0)
    cl.run()
    wrong_future = eng.poser("a")
    assert wrong_future.log == [100.0]
    eng.schedule("a", "note", 1.0, at=1.0)
    eng.run()
    # The restored object is a rebuilt instance, not the mutated one.
    assert eng.poser("a") is not wrong_future
    assert eng.poser("a").log == [1.0, 100.0]


def test_gvt_and_stats():
    cl, eng = make_engine()
    eng.schedule("a", "note", 1.0, at=1.0)
    stats = eng.run()
    assert stats.gvt == float("inf")            # all work done
    assert stats.events_processed == 1


def test_zero_delay_rejected():
    @pup_register
    class Bad(Poser):
        def __init__(self):
            pass

        def pup(self, p):
            pass

        def on_go(self, data):
            return [("x", "go", None, 0.0)]

    cl = Cluster(1)
    eng = PoseEngine(cl)
    eng.register("x", Bad(), 0)
    eng.schedule("x", "go")
    with pytest.raises(ReproError, match="positive"):
        eng.run()


def test_unknown_poser_and_handler():
    cl, eng = make_engine()
    with pytest.raises(ReproError):
        eng.schedule("ghost", "note", 0)
    eng.schedule("a", "explode", 0)
    with pytest.raises(ReproError, match="on_explode"):
        eng.run()


def test_duplicate_registration_rejected():
    cl, eng = make_engine()
    with pytest.raises(ReproError):
        eng.register("a", Recorder(), 0)
    with pytest.raises(ReproError):
        eng.register("c", Recorder(), 9)


# -- the Time-Warp contract, property-tested -----------------------------------

@given(vts=st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=12, unique=True),
       n_pe=st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_optimistic_equals_sequential(vts, n_pe):
    """Whatever the injection order (descending = maximum straggling), the
    final log equals the sequential in-timestamp-order execution."""
    cl, eng = make_engine(n_pe=n_pe, posers=("a",))
    for vt in sorted(vts, reverse=True):       # worst-case arrival order
        eng.schedule("a", "note", float(vt), at=float(vt))
    eng.run()
    assert eng.poser("a").log == sorted(float(v) for v in vts)


@given(vts=st.lists(st.integers(min_value=1, max_value=30), min_size=2,
                    max_size=8, unique=True))
@settings(max_examples=20, deadline=None)
def test_forwarding_chain_equals_sequential(vts):
    """With a downstream poser fed by forwards, both logs come out in
    timestamp order despite rollback cascades."""
    cl, eng = make_engine(n_pe=2, posers=("hub", "down"),
                          forward={"hub": "down"})
    for vt in sorted(vts, reverse=True):
        eng.schedule("hub", "note", float(vt), at=float(vt))
    eng.run()
    expected = sorted(float(v) for v in vts)
    assert eng.poser("hub").log == expected
    assert eng.poser("down").log == expected


# -- event ownership -------------------------------------------------------------

@pup_register
class Lender(Poser):
    """Sends its buffer to ``b`` at VT 10, then appends 99 to it at VT 1
    of its own clock; also notes what it is sent."""

    def __init__(self):
        self.buf = []
        self.got = ""

    def pup(self, p):
        self.buf = p.list_int(self.buf)
        self.got = p.str(self.got)

    def on_lend(self, data):
        self.buf = [1]
        return [("b", "take", self.buf, 10.0)]

    def on_spoil(self, data):
        self.buf.append(99)
        return []

    def on_take(self, data):
        self.got += repr(data)
        data.append(-1)                 # the receiver's own to write
        return []


@pytest.mark.parametrize("n_pe", [1, 2])
def test_event_data_is_the_receivers_own(n_pe):
    """What a poser sends is frozen where the event is made: a later
    write by the sender never reaches the receiver, and a rolled-back
    event re-runs on the value that was sent, not on what the last run
    did to it."""
    cl = Cluster(n_pe)
    eng = PoseEngine(cl)
    eng.register("a", Lender(), 0)
    eng.register("b", Lender(), 1 % n_pe)
    eng.schedule("a", "lend", at=0.0)
    eng.schedule("a", "spoil", at=1.0)
    eng.schedule("b", "take", [7], at=20.0)      # runs first: a straggler
    eng.run()                                   # follows and rolls it back
    assert eng.poser("b").got == "[1][7]"
    assert eng.poser("a").buf == [1, 99]


def test_event_data_pup_cannot_pack_is_refused():
    cl, eng = make_engine()
    with pytest.raises(ReproError, match=r"schedule -> poser 'a' "
                                         r"\(event 'note'\): cannot send set"):
        eng.schedule("a", "note", {1, 2}, at=1.0)

    @pup_register
    class Leaker(Poser):
        def pup(self, p):
            pass

        def on_go(self, data):
            return [("a", "note", {3}, 1.0)]

    eng.register("c", Leaker(), 0)
    eng.schedule("c", "go", at=1.0)
    with pytest.raises(ReproError, match=r"poser 'c' -> poser 'a' "
                                         r"\(event 'note'\): cannot send set"):
        eng.run()
