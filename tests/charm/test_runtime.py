"""Tests for the Charm-style runtime: arrays, routing, reductions, migration."""

import pytest

from repro.charm import Chare, CharmRuntime, When, Overlap
from repro.core.pup import pup_register
from repro.errors import CommError, PupError
from repro.sim import Cluster


@pup_register
class Counter(Chare):
    """Simple chare with puppable state."""

    def __init__(self, start=0):
        self.value = start
        self.log = []

    def pup(self, p):
        self.value = p.int(self.value)

    def bump(self, by):
        self.value += by

    def record_pe(self):
        self.log.append(self.my_pe)

    def report(self, total):
        self.log.append(("reduced", total))


def make(n_pe=4, n_elem=8, cls=Counter):
    cl = Cluster(n_pe)
    rt = CharmRuntime(cl)
    proxy = rt.create_array(cls, n_elem)
    return cl, rt, proxy


def test_array_creation_places_round_robin():
    cl, rt, proxy = make(4, 8)
    for i in range(8):
        assert rt.location_of(proxy.aid, i) == i % 4
        assert rt.element(proxy.aid, i).thisIndex == i


def test_send_invokes_entry_method():
    cl, rt, proxy = make()
    proxy[3].send("bump", 5)
    proxy[3].send("bump", 2)
    cl.run()
    assert rt.element(proxy.aid, 3).value == 7


def test_local_send_fast_path():
    cl, rt, proxy = make(2, 4)
    # Element 0 and 2 are both on PE 0; send from "main" (PE 0).
    proxy[2].send("bump", 1)
    sent_before = cl[0].messages_sent
    cl.run()
    assert rt.element(proxy.aid, 2).value == 1
    assert cl[0].messages_sent == sent_before     # no network traffic


def test_broadcast():
    cl, rt, proxy = make(3, 7)
    proxy.broadcast("bump", 10)
    cl.run()
    assert all(rt.element(proxy.aid, i).value == 10 for i in range(7))


def test_index_bounds():
    cl, rt, proxy = make(2, 4)
    with pytest.raises(CommError):
        proxy[4]
    with pytest.raises(CommError):
        proxy[-1]


def test_reduction_sum():
    cl, rt, proxy = make(4, 8)

    class _:
        pass

    for i in range(8):
        rt.element(proxy.aid, i).value = i
    # Every element contributes its value.
    for i in range(8):
        elem = rt.element(proxy.aid, i)
        rt._pe_stack.append(elem.my_pe)
        elem.contribute(elem.value, "sum", "report")
        rt._pe_stack.pop()
    cl.run()
    assert ("reduced", sum(range(8))) in rt.element(proxy.aid, 0).log


def test_reduction_max_and_min():
    cl, rt, proxy = make(2, 4)
    for op, expect in (("max", 9), ("min", 0)):
        for i, v in enumerate([3, 9, 0, 4]):
            elem = rt.element(proxy.aid, i)
            rt._pe_stack.append(elem.my_pe)
            elem.contribute(v, op, "report")
            rt._pe_stack.pop()
        cl.run()
        assert ("reduced", expect) in rt.element(proxy.aid, 0).log


def test_migration_moves_state_via_pup():
    cl, rt, proxy = make(2, 2)
    proxy[1].send("bump", 42)
    cl.run()
    original = rt.element(proxy.aid, 1)
    rt.migrate_element(proxy.aid, 1, 0)
    cl.run()
    moved = rt.element(proxy.aid, 1)
    assert moved is not original          # genuinely rebuilt from bytes
    assert moved.value == 42              # state survived serialization
    assert moved.my_pe == 0
    assert rt.location_of(proxy.aid, 1) == 0


def test_registered_chare_whose_pup_raises_never_migrates_by_reference():
    """A failing pup() is a positioned PupError, not a "successful"
    migration of the live Python object at a made-up 256-byte size."""
    @pup_register
    class BrokenPup(Chare):
        def pup(self, p):
            p.int("oops")

    cl, rt, proxy = make(2, 2, BrokenPup)
    with pytest.raises(PupError, match=r"BrokenPup \(field #\d, packing\)"):
        rt.migrate_element(proxy.aid, 1, 0)
    assert rt.migrations == 0
    assert rt.element(proxy.aid, 1).my_pe == 1      # still home, intact
    assert cl.run() == 0                            # nothing was shipped


def test_messages_after_migration_are_forwarded():
    cl, rt, proxy = make(4, 4)
    rt.migrate_element(proxy.aid, 1, 3)   # home of 1 is PE 1; now lives on 3
    cl.run()
    proxy[1].send("bump", 7)
    cl.run()
    assert rt.element(proxy.aid, 1).value == 7
    assert rt.element(proxy.aid, 1).my_pe == 3


def test_migrate_back_and_forth():
    cl, rt, proxy = make(3, 3)
    for dst in (2, 1, 0):
        rt.migrate_element(proxy.aid, 0, dst)
        cl.run()
        proxy[0].send("bump", 1)
        cl.run()
    assert rt.element(proxy.aid, 0).value == 3
    assert rt.migrations == 3


def test_entry_method_sees_current_pe():
    cl, rt, proxy = make(2, 2)
    proxy.broadcast("record_pe")
    cl.run()
    assert rt.element(proxy.aid, 0).log == [0]
    assert rt.element(proxy.aid, 1).log == [1]


def test_entry_method_charges_time():
    cl, rt, proxy = make(2, 2)
    t = cl[1].now

    class Work(Chare):
        def go(self):
            self.charge(10_000)

    wp = rt.create_array(Work, 2)
    wp[1].send("go")
    cl.run()
    assert cl[1].now >= t + 10_000


# -- SDAG integration -----------------------------------------------------

class StencilChare(Chare):
    """Figure 1's life cycle as an SDAG method over the runtime."""

    ITER = 3

    def __init__(self):
        self.history = []

    def lifecycle(self):
        n = self.thisProxy.n
        left = (self.thisIndex - 1) % n
        right = (self.thisIndex + 1) % n
        for i in range(self.ITER):
            self.thisProxy[left].send("strip_from_right",
                                      (self.thisIndex, i))
            self.thisProxy[right].send("strip_from_left",
                                       (self.thisIndex, i))
            l, r = yield Overlap(When("strip_from_left"),
                                 When("strip_from_right"))
            self.history.append((i, l, r))


def test_sdag_stencil_over_runtime():
    cl = Cluster(2)
    rt = CharmRuntime(cl)
    proxy = rt.create_array(StencilChare, 4)
    proxy.broadcast("lifecycle")
    cl.run()
    for i in range(4):
        h = rt.element(proxy.aid, i).history
        assert len(h) == StencilChare.ITER
        for step, (l_src, l_i), (r_src, r_i) in h:
            assert l_src == (i - 1) % 4       # strip from the left neighbor
            assert r_src == (i + 1) % 4
            assert l_i == r_i == step          # no cross-iteration mixups


def test_sdag_chare_migration_keeps_driver():
    """A chare with a live SDAG continuation migrates object-identically."""
    cl = Cluster(2)
    rt = CharmRuntime(cl)

    class Waiter(Chare):
        def __init__(self):
            self.got = []

        def wait_two(self):
            a = yield When("item")
            self.got.append((a, self.my_pe))
            b = yield When("item")
            self.got.append((b, self.my_pe))

    proxy = rt.create_array(Waiter, 1)
    proxy[0].send("wait_two")
    proxy[0].send("item", 1)
    cl.run()
    rt.migrate_element(proxy.aid, 0, 1)
    cl.run()
    proxy[0].send("item", 2)
    cl.run()
    elem = rt.element(proxy.aid, 0)
    assert elem.got == [(1, 0), (2, 1)]
