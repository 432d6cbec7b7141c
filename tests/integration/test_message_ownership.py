"""A sent value is the receiver's own, on every message road.

The flows talk only by messages that cross address spaces, so whatever a
sender does to its buffer after a send returns must not reach the
receiver, and two deliveries of one message (a chaos ``dup``) must not
share one object.  Each runtime takes ownership at one seam
(``repro.core.pup.freeze_value`` at the send, ``thaw_value`` at each
delivery): AMPI point-to-point and its collectives on one processor and
on two, ``FlowWorld`` in both forms, and Charm entry methods, local and
remote, and reductions.  What PUP cannot pack is refused at the send
with the runtime's positioned error.
"""

from collections import namedtuple

import numpy as np
import pytest

from repro.ampi import AmpiRuntime
from repro.chaos import FaultEvent, FaultInjector, FaultSchedule
from repro.charm import Chare, CharmRuntime
from repro.core.pup import pup_register
from repro.errors import AmpiError, CommError, ReproError
from repro.flows.runtime import FlowProgram, FlowWorld
from repro.sim import Cluster


class Particle:
    def __init__(self, x=0.0, tags=()):
        self.x, self.tags = x, list(tags)

    def pup(self, p):
        self.x = p.double(self.x)
        self.tags = p.list_int(self.tags)


pup_register(Particle, "tests.integration.ownership.Particle")

Pair = namedtuple("Pair", "a b")


def _payloads():
    """Fresh mutable payloads of every packable kind (a registered
    object travels on its own: ``pack_value`` has no tag for one)."""
    return {"list": [1, 2, 3], "dict": {"k": [1.5]},
            "array": np.arange(3.0), "nested": ([1], (2, [3])),
            "particle": Particle(1.0, [7])}


def _tree(values):
    return {k: v for k, v in values.items() if k != "particle"}


def _scribble(values):
    values["list"][0] = 999
    values["dict"]["k"].append(0.0)
    values["array"][:] = -1.0
    values["nested"][1][1].append(4)
    values["particle"].x = -5.0
    values["particle"].tags.append(8)


def _same(got, want):
    assert got.keys() == want.keys()
    assert got["list"] == want["list"]
    assert got["dict"] == want["dict"]
    assert got["array"].tolist() == want["array"].tolist()
    assert got["nested"] == want["nested"]
    assert type(got["particle"]) is Particle
    assert (got["particle"].x, got["particle"].tags) == (1.0, [7])


# -- AMPI ---------------------------------------------------------------------

@pytest.mark.parametrize("num_procs", [1, 2], ids=["one-pe", "two-pes"])
@pytest.mark.parametrize("op", ["send", "isend"])
def test_ampi_mutation_after_send_is_invisible(num_procs, op):
    got = {}

    def main(mpi):
        if mpi.rank == 0:
            values = _payloads()
            for name, value in values.items():
                getattr(mpi, op)(1, value, tag=name)
            _scribble(values)
        else:
            for name in _payloads():
                got[name] = yield from mpi.recv(source=0, tag=name)
        yield from mpi.barrier()

    AmpiRuntime(num_procs, 2, main).run()
    _same(got, _payloads())


@pytest.mark.parametrize("num_procs", [1, 2], ids=["one-pe", "two-pes"])
def test_ampi_bcast_gives_every_rank_its_own_value(num_procs):
    seen = {}

    def main(mpi):
        value = [0] if mpi.rank == 0 else None
        value = yield from mpi.bcast(value, root=0)
        value.append(mpi.rank)
        yield from mpi.barrier()
        seen[mpi.rank] = list(value)

    AmpiRuntime(num_procs, 4, main).run()
    assert seen == {r: [0, r] for r in range(4)}


def test_a_chaos_dup_delivers_two_values_that_do_not_alias():
    got = []

    def main(mpi):
        if mpi.rank == 0:
            mpi.send(1, [1, 2, 3], tag="t")
        else:
            for _ in range(2):
                got.append((yield from mpi.recv(source=0, tag="t")))

    rt = AmpiRuntime(Cluster(2), 2, main)
    injector = FaultInjector(FaultSchedule.scripted(
        [FaultEvent("send", 0, "dup", 5_000.0)])).attach(rt.cluster)
    rt.run()
    assert injector.counters["duplicated"] == 1
    first, second = got
    assert first == second == [1, 2, 3]
    assert first is not second
    first.append(4)
    assert second == [1, 2, 3]


@pytest.mark.parametrize("dest", [1.0, None, "1"],
                         ids=["float", "none", "str"])
def test_ampi_send_to_a_non_integer_rank_is_positioned(dest):
    def main(mpi):
        if mpi.rank == 0:
            mpi.send(dest, 5)
        yield from mpi.yield_()

    with pytest.raises(AmpiError) as exc:
        AmpiRuntime(2, 2, main).run()
    assert str(exc.value) == (f"rank 0: send to bad rank {dest!r} "
                              f"(size 2, tag=0)")


@pytest.mark.parametrize("value,name", [
    ({1, 2}, "set"),
    (Pair([1], 2), "Pair"),
    (bytearray(b"ab"), "bytearray"),
    ([1, {2}], "set inside a list"),
], ids=["set", "named-tuple-holding-a-list", "bytearray", "nested-set"])
def test_ampi_refuses_what_pup_cannot_pack_at_the_send(value, name):
    def main(mpi):
        if mpi.rank == 0:
            mpi.send(1, value, tag=7)
        yield from mpi.yield_()

    with pytest.raises(AmpiError) as exc:
        AmpiRuntime(2, 2, main).run()
    assert str(exc.value) == (f"rank 0 -> 1 (tag=7): cannot send {name}; "
                              f"a rank sends what PUP packs")


# -- FlowWorld ----------------------------------------------------------------

def _flow_exchange(mpi):
    if mpi.rank == 0:
        buf = [1, 2, 3]
        mpi.send(1, buf, tag="t")
        buf[0] = 999
        mpi.results[0] = buf
    else:
        got = yield from mpi.recv(source=0, tag="t")
        mpi.results[1] = got


def _flow_refusal(mpi):
    mpi.send(1 - mpi.rank, {1, 2}, tag="t")
    yield "exit"


@pytest.mark.parametrize("form", ["thread", "compiled"])
def test_flow_mutation_after_send_is_invisible(form):
    world = FlowWorld(2)
    world.spawn(form, FlowProgram("exchange", 2, _flow_exchange))
    world.run()
    assert world.results == {0: [999, 2, 3], 1: [1, 2, 3]}


@pytest.mark.parametrize("form", ["thread", "compiled"])
def test_flow_refuses_what_pup_cannot_pack(form):
    world = FlowWorld(2)
    world.spawn(form, FlowProgram("refusal", 2, _flow_refusal))
    with pytest.raises(ReproError) as exc:
        world.run()
    assert str(exc.value) == ("flow r0 -> r1 (tag='t'): cannot send set; "
                              "a rank sends what PUP packs")


# -- Charm ----------------------------------------------------------------------

class Holder(Chare):
    def __init__(self):
        self.got = {}
        self.reduced = None

    def give(self, dst):
        values = _payloads()
        self.thisProxy[dst].send("take", _tree(values), values["particle"])
        _scribble(values)

    def take(self, values, particle):
        self.got = dict(values, particle=particle)

    def share(self, dst):
        self.kept = [1, 2, 3]
        self.thisProxy[dst].send("spoil", self.kept)

    def spoil(self, buf):
        buf[0] = 999

    def join(self):
        mine = [self.thisIndex]
        self.contribute(mine, "concat", "done")
        mine.append(99)

    def done(self, value):
        self.reduced = value

    def refuse(self):
        self.thisProxy[0].send("take", {1}, None)


@pytest.mark.parametrize("num_procs", [1, 2], ids=["local", "remote"])
def test_charm_mutation_after_send_is_invisible(num_procs):
    rt = CharmRuntime(Cluster(num_procs))
    proxy = rt.create_array(Holder, 2)
    proxy[0].send("give", 1)
    rt.run()
    _same(rt.element(proxy.aid, 1).got, _payloads())


@pytest.mark.parametrize("num_procs", [1, 2], ids=["local", "remote"])
def test_charm_receiver_writes_do_not_reach_the_sender(num_procs):
    rt = CharmRuntime(Cluster(num_procs))
    proxy = rt.create_array(Holder, 2)
    proxy[0].send("share", 1)
    rt.run()
    assert rt.element(proxy.aid, 0).kept == [1, 2, 3]


@pytest.mark.parametrize("num_procs", [1, 2], ids=["local", "remote"])
def test_charm_contribution_is_taken_at_contribute(num_procs):
    rt = CharmRuntime(Cluster(num_procs))
    proxy = rt.create_array(Holder, 4)
    proxy.broadcast("join")
    rt.run()
    assert sorted(rt.element(proxy.aid, 0).reduced) == [[0], [1], [2], [3]]


def test_charm_refuses_what_pup_cannot_pack():
    rt = CharmRuntime(Cluster(2))
    proxy = rt.create_array(Holder, 2)
    proxy[1].send("refuse")
    with pytest.raises(CommError) as exc:
        rt.run()
    assert str(exc.value) == ("a0[0].take: cannot send set; a rank sends "
                              "what PUP packs")
