"""Ablation: all five flow mechanisms side by side on one machine.

Figures 4-8 compare the paper's four measured mechanisms; this ablation
adds event-driven objects (Section 2.4) and the N:M hybrid (Section 2.3's
related work) on the Linux x86 model, making the full cost spectrum of the
paper's taxonomy visible in one table.
"""

from repro.bench.report import emit, render_table
from repro.flows import (AmpiThreadFlow, EventObjectFlow, HybridThreadFlow,
                         KernelThreadFlow, ProcessFlow, UserThreadFlow)
from repro.sim import Processor, get_platform

N_FLOWS = 1000


def test_ablation_all_mechanisms(benchmark):
    rows = []
    costs = {}
    for cls in (EventObjectFlow, UserThreadFlow, AmpiThreadFlow,
                HybridThreadFlow, KernelThreadFlow, ProcessFlow):
        proc = Processor(0, get_platform("linux_x86"))
        mech = cls(proc)
        cost = mech.switch_cost_ns(N_FLOWS)
        costs[mech.label] = cost
        rows.append([mech.label, f"{cost / 1000:.3f}",
                     f"{mech.cache_weight:.2f}"])
    emit("ablation_mechanisms.txt",
         render_table(["mechanism", "us/switch @1000 flows", "cache weight"],
                      rows,
                      "Ablation: the full flow-of-control cost spectrum "
                      "(linux_x86)"))

    # The paper's taxonomy ordering, fully populated.
    assert (costs["event"] < costs["cth"] < costs["ampi"]
            < costs["n:m"] < costs["pthread"] < costs["process"])
    # Event-driven dispatch is an order of magnitude below kernel threads.
    assert costs["pthread"] / costs["event"] > 5

    proc = Processor(0, get_platform("linux_x86"))
    mech = EventObjectFlow(proc)
    benchmark(mech.switch_cost_ns, N_FLOWS)
