"""What one AMPI message costs the host, as a call count.

``ctx.send`` → ``Cluster.send`` → ``Processor.deliver`` → ``_enqueue`` →
wake → ``_resume`` → ``recv``: every hop binds what is fixed for the
run once and makes one pass, and ``Processor.deliver`` looks the
handler up by exact tag in the processor's one routing table.  Calls
per send on a fixed BT-MZ run is the deterministic proxy (83.2 before
the one-pass rewrite, 57.9 after it, 56.5 with ``Processor.now`` a plain
attribute rather than a property over a clock object, 50.8 with a
context switch one frame and no wrapper generator around the rank's
``main``, 48.49 while a separate tag dispatcher routed each
cross-processor arrival, 47.78 with the routing table on the
processor); the bound is the measured value rounded up, so a hop or a
shim layer coming back fails it.
"""

from repro.balance.strategies import GreedyLB
from repro.workloads.btmz import BTMZConfig, run_btmz
from tests.callcount import count_calls

CALLS_PER_SEND = 48


def test_calls_per_ampi_send_stay_within_budget():
    def run():
        return run_btmz(BTMZConfig("A", 16, 4, iterations=20), GreedyLB())

    run()                         # imports and per-process tables warm
    result, calls = count_calls(run)
    assert result.makespan_ns == 57146728.0
    assert result.migrations == 12
    sends = calls.of("_send")
    assert sends == 600
    assert calls.total / sends <= CALLS_PER_SEND, calls.total / sends


#: Calls per send of the AMPI stencil, whose every message is a NumPy
#: row: 71.18 while the sender copied the row and the receiver got that
#: copy by reference, 78.18 with ownership taken at the runtime's seam
#: (``freeze_value`` copies the row once, ``thaw_value`` once more per
#: delivery).  Packing the row with ``pack_value`` instead cost 157.18
#: (120.18 once ``unpack_value`` no longer read through an
#: ``UnpackingPupper``).  The bound is the measured value rounded up, so
#: a third copy or a codec walk per row fails it.
CALLS_PER_STRIP_SEND = 79


def test_calls_per_ampi_array_send_stay_within_budget():
    from repro.workloads.stencil import StencilConfig, run_ampi_stencil

    def run():
        return run_ampi_stencil(StencilConfig(rows=64, cols=32,
                                              iterations=10), 2, 4)

    run()                         # imports and per-process tables warm
    (rt, grid), calls = count_calls(run)
    assert rt.makespan_ns == 181152.0
    assert float(grid.sum()) == 5306.706190109253
    sends = calls.of("_send")
    assert sends == 60
    assert calls.total / sends <= CALLS_PER_STRIP_SEND, calls.total / sends
