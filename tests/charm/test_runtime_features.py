"""Tests for quiescence detection, array sections, and array checkpoints."""

import pytest

from repro.charm import Chare, CharmRuntime, When
from repro.core.pup import pup_register
from repro.errors import CommError
from repro.sim import Cluster


@pup_register
class Pingable(Chare):
    def __init__(self):
        self.pings = 0
        self.quiet = []

    def pup(self, p):
        self.pings = p.int(self.pings)

    def ping(self, hops=0):
        self.pings += 1
        if hops > 0:
            nxt = (self.thisIndex + 1) % self.thisProxy.n
            self.thisProxy[nxt].send("ping", hops - 1)

    def on_quiescence(self):
        self.quiet.append(self.pings)


def make(n_pe=2, n_elem=4):
    cl = Cluster(n_pe)
    rt = CharmRuntime(cl)
    return cl, rt, rt.create_array(Pingable, n_elem)


# -- quiescence detection ------------------------------------------------------

def test_quiescence_fires_after_all_messages_drain():
    cl, rt, proxy = make()
    # A 20-hop relay keeps messages in flight for a while.
    proxy[0].send("ping", 20)
    rt.detect_quiescence(proxy.aid, 0, "on_quiescence")
    cl.run()
    elem = rt.element(proxy.aid, 0)
    assert elem.quiet, "quiescence callback never fired"
    # At quiescence every ping had been processed: 21 hops over 4 elements.
    total = sum(rt.element(proxy.aid, i).pings for i in range(4))
    assert total == 21
    assert rt._qd.created == rt._qd.processed


def test_quiescence_on_idle_system():
    cl, rt, proxy = make()
    rt.detect_quiescence(proxy.aid, 1, "on_quiescence")
    cl.run()
    assert rt.element(proxy.aid, 1).quiet == [0]


def test_quiescence_waits_while_messages_in_flight():
    """Waves that run mid-relay see unbalanced counters and re-arm."""
    cl, rt, proxy = make()
    order = []

    class Slow(Chare):
        def hop(self, hops):
            self.charge(120_000)             # slow hops span many waves
            order.append(("hop", hops))
            if hops > 0:
                nxt = (self.thisIndex + 1) % self.thisProxy.n
                self.thisProxy[nxt].send("hop", hops - 1)

        def qd(self):
            order.append("qd")

    sp = rt.create_array(Slow, 2)
    sp[0].send("hop", 10)
    rt.detect_quiescence(sp.aid, 0, "qd", check_ns=30_000)
    cl.run()
    # Every hop strictly precedes the quiescence callback.
    assert order[-1] == "qd"
    assert sum(1 for e in order if e != "qd") == 11


def test_quiescence_counts_messages_not_timers():
    """Like real Charm QD, the counting protocol sees *messages*; work
    hidden behind a raw timer is invisible to it (documented semantic)."""
    cl, rt, proxy = make()

    class Burster(Chare):
        fired = []

        def kickoff(self):
            self.runtime.cluster.after(self.my_pe, 500_000,
                                       self.thisProxy[0].send, "late")

        def late(self):
            Burster.fired.append("late")

        def done(self):
            Burster.fired.append("qd")

    bp = rt.create_array(Burster, 1)
    bp[0].send("kickoff")
    rt.detect_quiescence(bp.aid, 0, "done", check_ns=50_000)
    cl.run()
    # QD fires during the timer gap; the timer's message runs afterwards.
    assert Burster.fired == ["qd", "late"]


# -- array sections -------------------------------------------------------------

def test_section_multicast():
    cl, rt, proxy = make(2, 6)
    section = rt.section(proxy.aid, [1, 3, 5])
    assert len(section) == 3
    section.send("ping")
    cl.run()
    for i in range(6):
        assert rt.element(proxy.aid, i).pings == (1 if i % 2 else 0)


def test_section_bad_index():
    cl, rt, proxy = make()
    with pytest.raises(CommError):
        rt.section(proxy.aid, [0, 9])


# -- array checkpoint ------------------------------------------------------------

def test_array_checkpoint_restore_roundtrip():
    cl, rt, proxy = make(2, 4)
    proxy.broadcast("ping")
    cl.run()
    blob = rt.checkpoint_array(proxy.aid)
    assert isinstance(blob, bytes)
    # Mutate the live state, then restore the snapshot.
    proxy.broadcast("ping")
    cl.run()
    assert rt.element(proxy.aid, 0).pings == 2
    rt.restore_array(blob)
    for i in range(4):
        assert rt.element(proxy.aid, i).pings == 1
    # Restored elements are fully wired: messaging still works.
    proxy[2].send("ping")
    cl.run()
    assert rt.element(proxy.aid, 2).pings == 2


def test_array_checkpoint_respects_placement():
    cl, rt, proxy = make(2, 4)
    rt.migrate_element(proxy.aid, 0, 1)
    cl.run()
    blob = rt.checkpoint_array(proxy.aid)
    rt.restore_array(blob)
    assert rt.element(proxy.aid, 0).my_pe == 1


def test_checkpoint_with_live_sdag_rejected():
    from repro.charm import When

    class Waiter(Chare):
        def waitloop(self):
            yield When("never")

    cl = Cluster(1)
    rt = CharmRuntime(cl)
    wp = rt.create_array(Waiter, 1)
    wp[0].send("waitloop")
    cl.run()
    with pytest.raises(CommError, match="SDAG continuation"):
        rt.checkpoint_array(wp.aid)


@pup_register
class Collector(Chare):
    def __init__(self):
        self.got = []

    def pup(self, p):
        self.got = p.list_int(self.got)

    def collect(self):
        self.got.append((yield When("item")))


def test_checkpoint_with_buffered_when_messages_rejected():
    cl = Cluster(1)
    rt = CharmRuntime(cl)
    proxy = rt.create_array(Collector, 2)
    proxy[1].send("item", 7)             # no method live: buffered
    cl.run()
    with pytest.raises(CommError, match=r"a0\[1\] has buffered when"):
        rt.checkpoint_array(proxy.aid)


def test_restore_drops_the_continuation_of_the_element_it_replaces():
    cl = Cluster(2)
    rt = CharmRuntime(cl)
    proxy = rt.create_array(Collector, 2)
    blob = rt.checkpoint_array(proxy.aid)
    proxy[1].send("collect")             # live after the checkpoint
    cl.run()
    old = rt.element(proxy.aid, 1)
    rt.restore_array(blob)
    proxy[1].send("collect")
    proxy[1].send("item", 5)
    cl.run()
    assert rt.element(proxy.aid, 1).got == [5]
    assert old.got == []
    assert rt.checkpoint_array(proxy.aid)     # nothing live, nothing held
