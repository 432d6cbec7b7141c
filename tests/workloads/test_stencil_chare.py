"""The paper's Figure 1 event form, on the chare runtime (claim 23).

The hand-inverted stencil is a ``pup_register``'ed chare; it must give
the thread form's answer float-exactly — also when an element is
rebuilt from PUP bytes on another processor in the middle of the run
and its in-flight ghosts have to be forwarded after it.
"""

import pytest

from repro.charm import CharmRuntime
from repro.core.pup import pup_pack, pup_unpack
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


def test_buffered_ghosts_survive_the_pup_roundtrip():
    chare = StencilChare()
    chare.data, chare.steps, chare.step, chare.started = [1.5, 2.5], 4, 1, True
    chare.above, chare.below = {1: 0.25, 2: 0.5}, {3: -1.0}
    back = pup_unpack(pup_pack(chare))
    assert vars(back) == vars(chare)


def test_results_refuse_an_unfinished_array():
    rt = CharmRuntime(Cluster(2))
    proxy = start_stencil_chares(rt, 4, cells=4, steps=3, seed=2)
    rt.run(max_events=6)
    with pytest.raises(ReproError, match="have not finished"):
        stencil_chare_results(rt, proxy)
