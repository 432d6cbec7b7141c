"""What one AMPI message costs the host, as a call count.

``ctx.send`` → ``Cluster.send`` → ``Processor.deliver`` → ``_enqueue`` →
wake → ``_dispatch`` → ``recv``: every hop binds what is fixed for the
run once and makes one pass.  Calls per send on a fixed BT-MZ run is the
deterministic proxy (83.2 before the one-pass rewrite, 57.9 after it,
56.5 with ``Processor.now`` a plain attribute rather than a property over
a clock object); the bound leaves room for a call or two per message,
not for a shim layer coming back.
"""

from repro.balance.strategies import GreedyLB
from repro.workloads.btmz import BTMZConfig, run_btmz
from tests.callcount import count_calls

CALLS_PER_SEND = 58


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
