"""The paper's Figure 1 event form, on the chare runtime (claim 23).

The hand-inverted stencil is a ``pup_register``'ed chare; it must give
the thread form's answer float-exactly — also when an element is
rebuilt from PUP bytes on another processor in the middle of the run
and its in-flight ghosts have to be forwarded after it.
"""

import pytest

from repro.charm import CharmRuntime
from repro.core.pup import pup_pack, pup_size, pup_unpack
from repro.errors import ReproError
from repro.flows import WORKLOAD_MECHANISMS
from repro.flows.stencil import stencil_program
from repro.sim import Cluster, Processor, get_platform
from repro.workloads.stencil_chare import (StencilChare,
                                           start_stencil_chares,
                                           stencil_chare_results)

SHAPE = dict(cells=8, steps=5, seed=11)
RANKS = 6


def flow_results(label):
    mech = WORKLOAD_MECHANISMS[label](Processor(0, get_platform("linux_x86")))
    return mech.run_workload(stencil_program(RANKS, **SHAPE),
                             real_flows=False).results


def test_one_pe_matches_every_hosted_form_float_exactly():
    rt = CharmRuntime(Cluster(1))
    proxy = start_stencil_chares(rt, RANKS, **SHAPE)
    rt.run()
    got = stencil_chare_results(rt, proxy)
    assert len(got) == RANKS
    for label in ("cth", "compiled", "n:m"):
        assert got == flow_results(label), label
    assert rt.migrations == 0 and rt.messages_forwarded == 0


@pytest.mark.parametrize("events_before", [12, 20, 30])
def test_element_migrated_mid_run_is_rebuilt_from_bytes_and_still_exact(
        events_before):
    rt = CharmRuntime(Cluster(3))
    proxy = start_stencil_chares(rt, RANKS, **SHAPE)
    rt.run(max_events=events_before)
    before = rt.element(proxy.aid, 2)
    assert 0 < before.step < before.steps           # genuinely mid-run
    rt.migrate_element(proxy.aid, 2, 0)             # PE 2 -> PE 0
    rt.run()
    after = rt.element(proxy.aid, 2)
    assert after is not before                      # rebuilt, not handed over
    assert after.my_pe == 0 and rt.location_of(proxy.aid, 2) == 0
    assert rt.migrations == 1
    assert rt.messages_forwarded >= 1               # a ghost chased it
    assert stencil_chare_results(rt, proxy) == flow_results("cth")


#: ``pup_pack`` of the chare below, captured before ``pup_pack`` /
#: ``pup_size`` / ``pup_unpack`` shared ``BasePupper.obj``'s framing.
BUFFERED_HEX = (
    "0c000000000000005374656e63696c4368617265020000000000000000000000"
    "0000f83f00000000000004400400000000000000010000000000000001020000"
    "0000000000010000000000000002000000000000000200000000000000000000"
    "000000d03f000000000000e03f01000000000000000300000000000000010000"
    "0000000000000000000000f0bf")


def test_buffered_ghosts_survive_the_pup_roundtrip():
    chare = StencilChare()
    chare.data, chare.steps, chare.step, chare.started = [1.5, 2.5], 4, 1, True
    chare.above, chare.below = {1: 0.25, 2: 0.5}, {3: -1.0}
    blob = pup_pack(chare)
    assert blob.hex() == BUFFERED_HEX and pup_size(chare) == 141
    back = pup_unpack(blob)
    assert vars(back) == vars(chare)


def test_results_refuse_an_unfinished_array():
    rt = CharmRuntime(Cluster(2))
    proxy = start_stencil_chares(rt, 4, cells=4, steps=3, seed=2)
    rt.run(max_events=6)
    with pytest.raises(ReproError, match="have not finished"):
        stencil_chare_results(rt, proxy)
