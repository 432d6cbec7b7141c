"""What one ``FlowWorld`` message costs the host, as a call count.

``mpi.send`` → mailbox append → wait test → ``kernel.post`` → ``_resume``
→ ``step`` → ``recv``/``op_recv``: a mailbox entry is a plain tuple, the
match is inline, the compiled form enters one state per straight-line
run.  Total Python+C calls per ``send`` on the two ``flows_msg``
programs is the deterministic proxy (sibling of
``tests/ampi/test_message_budget.py``).  Before the one-pass rewrite:
ring 17.4 (thread) / 24.9 (compiled), stencil 25.8 / 31.4; after it
13.4 / 17.0 and 10.3 / 13.6.  The bounds leave room for less than one
call per message, not for a message class, a ``matches()`` per queued
entry or a one-line state per statement coming back.
"""

import pytest

from repro.flows import CompiledContinuationFlow, UserThreadFlow
from repro.flows.programs import ring_program
from repro.flows.stencil import stencil_program
from repro.sim import Processor, get_platform
from tests.callcount import count_calls

RING = (lambda: ring_program(1000, 50, 1), 1000 * 50, 52_050)
STENCIL = (lambda: stencil_program(400, cells=8, steps=80, seed=1),
           2 * 399 * 80, 30_760)


@pytest.mark.parametrize("workload,mechanism,budget", [
    (RING, UserThreadFlow, 14.0),
    (RING, CompiledContinuationFlow, 17.5),
    (STENCIL, UserThreadFlow, 11.0),
    (STENCIL, CompiledContinuationFlow, 14.0),
], ids=["ring-thread", "ring-compiled", "stencil-thread",
        "stencil-compiled"])
def test_calls_per_flow_message_stay_within_budget(workload, mechanism,
                                                   budget):
    factory, messages, dispatches = workload
    program = factory()

    def run():
        return mechanism(Processor(0, get_platform("linux_x86"))) \
            .run_workload(program, real_flows=False)

    run()                         # imports and the analysis gate warm
    result, calls = count_calls(run)
    assert len(result.results) == program.ranks
    assert result.dispatches == result.kernel_events == dispatches
    assert calls.of("send", "runtime.py") == messages
    assert calls.total / messages <= budget, calls.total / messages
