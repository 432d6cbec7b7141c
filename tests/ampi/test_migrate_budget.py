"""What one migration or checkpoint costs the host, as a call count.

The ``migrate_storm`` shape — BT-MZ class B, 64 ranks on 8 processors, 40
iterations under ``RotateLB`` (every rank migrates every step: 2 560
migrations) with a coordinated checkpoint every 8 (320 images) — is the
road ``ThreadMigrator.pack/rebuild/depart`` and the stack managers'
``pack``/``unpack`` carry.  Total calls per technique were 1 046 656 /
897 607 / 874 024 when each manager had its own copy of that road and
every switch bumped two counters nothing read, and 1 031 272 / 885 127 /
814 832 while loads and stores resumed a generator per page and
``pack_value`` ran every field through a ``PackingPupper``; they are
707 312 / 666 503 / 635 696 with one pass per mapping and per image.
Memory aliasing made 43 520, then 23 040, ``Frame.read`` +
``Frame.write`` calls; its private frames now move through the pool's
``load``/``store``, one run per image.  The simulated outcome is pinned
beside the budget: same makespan, same bytes on the wire.
"""

import pytest

from repro.ampi import AmpiRuntime
from repro.balance import RotateLB
from repro.workloads import BTMZConfig
from repro.workloads.btmz import make_btmz_main
from tests.callcount import count_calls

#: technique -> (calls allowed, makespan_ns, bytes shipped).
STORM = {
    "isomalloc": (710_000, 974659842.0, 84705280),
    "stack_copy": (669_000, 974490882.0, 84541440),
    "memory_alias": (638_000, 976926914.0, 84541440),
}

#: ``Frame.read`` + ``Frame.write`` calls under memory aliasing: none —
#: packing and unpacking a stack is one ``PhysicalMemory.load``/``store``
#: over the thread's frames, as ``AddressSpace.read``/``write`` are.
FRAME_CALLS = 0


def storm(technique):
    cfg = BTMZConfig("B", 64, 8, iterations=40)
    rt = AmpiRuntime(8, 64, make_btmz_main(cfg, checkpoint_period=8),
                     strategy=RotateLB(), technique=technique)
    rt.run()
    return rt


@pytest.mark.parametrize("technique", sorted(STORM))
def test_calls_per_migrate_storm_stay_within_budget(technique):
    budget, makespan_ns, shipped = STORM[technique]
    storm(technique)              # imports and per-process tables warm
    rt, calls = count_calls(lambda: storm(technique))
    assert (rt.makespan_ns, rt.migrator.bytes_shipped) == (makespan_ns,
                                                           shipped)
    assert (rt.migrator.migrations_completed,
            rt.checkpointer.checkpoints_taken) == (2560, 320)
    assert calls.total <= budget, calls.total
    if technique == "memory_alias":
        assert (calls.of("read", "physical.py")
                + calls.of("write", "physical.py")) <= FRAME_CALLS
