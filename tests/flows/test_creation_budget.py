"""What creating and destroying a flow costs the host, as a call count.

``create_flows(n)`` asks each layer under a mechanism for the whole run
at once — the per-user cap, the isomalloc arena (``allocate_slots``),
the address space (``reserve_run``), physical memory
(``allocate_frames(n)``), the clock (``charge_run``) — and
``destroy_all`` gives the run back the same way (``release_run``,
``free_frames``, ``release_slots``).  What is left per flow is the
records themselves: the ``Mapping``, the touched ``Frame``, the payload
tuple, and a few steps of the loops that build and release them.  Total
Python+C calls per created-and-destroyed flow, the slope between two
population sizes so the run's fixed cost cancels, is the deterministic
proxy (``tests/callcount.py``): 6 (Cth), 13 (AMPI) and 0 (compiled),
where one flow at a time, before runs, it was 39, 52 and 9, and 9, 16
and 0 while the address space's runs appended each released mapping to
a list and fed each new start to the index through a generator.  The
bounds leave room for less than one call per flow (a collection that
runs mid-count adds a few calls in all), not for a layer called per
flow again.
"""

import pytest

from repro.flows import (AmpiThreadFlow, CompiledContinuationFlow,
                         UserThreadFlow)
from repro.sim import Processor, get_platform
from tests.callcount import count_calls


def _calls(mechanism, n):
    def run():
        mech = mechanism(Processor(0, get_platform("linux_x86")))
        mech.create_flows(n)
        assert mech.n_flows == n
        mech.destroy_all()
    run()                         # imports warm
    return count_calls(run)[1].total


@pytest.mark.parametrize("mechanism,budget", [
    (UserThreadFlow, 6.5),
    (AmpiThreadFlow, 13.5),
    (CompiledContinuationFlow, 0.5),
], ids=["cth", "ampi", "compiled"])
def test_calls_per_created_and_destroyed_flow_stay_within_budget(mechanism,
                                                                 budget):
    per_flow = (_calls(mechanism, 3000) - _calls(mechanism, 1000)) / 2000
    assert per_flow <= budget, per_flow
