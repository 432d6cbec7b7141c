"""What one mapping costs the host, as a call count.

``mmap`` is a run of one on the one road that makes mappings
(``AddressSpace._map``), and ``munmap`` is a ``release_run`` of one.
Calls per resident ``mmap`` + ``munmap`` pair, the slope between 2 000
and 1 000 pairs so the fixed cost cancels, is the deterministic proxy
(``tests/callcount.py``): 30 first fit in the heap and 31 at a fixed
address when ``mmap`` and ``munmap`` each had their own copy of the
road, 30 and 32 as runs of one.  The steps only a longer run needs —
sorting the new starts, sorting the released ones, a carve per stretch
of fixed bases — cost a run of one no call.  The bounds are the
measured values, so such a step coming back onto the road of one
mapping fails them.
"""

import pytest

from repro.vm import AddressSpace, AddressSpaceLayout, PhysicalMemory
from repro.vm.layout import MB
from tests.callcount import count_calls

#: Placement -> calls per ``mmap`` + ``munmap`` pair allowed.
CALLS_PER_PAIR = {"heap": 30, "fixed": 32}


def _calls(placement, pairs):
    space = AddressSpace(AddressSpaceLayout.small32(), PhysicalMemory(8 * MB))
    addr = (None if placement == "heap"
            else space.layout.regions["iso"].start)

    def run():
        for _ in range(pairs):
            space.munmap(space.mmap(8192, addr=addr))
    run()                         # frames created, free lists built
    return count_calls(run)[1].total


@pytest.mark.parametrize("placement", sorted(CALLS_PER_PAIR))
def test_calls_per_mmap_munmap_pair_stay_within_budget(placement):
    per_pair = (_calls(placement, 2000) - _calls(placement, 1000)) / 1000
    assert per_pair <= CALLS_PER_PAIR[placement], per_pair
