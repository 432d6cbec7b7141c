"""Ablation: virtualization ratio vs load-balance quality.

DESIGN.md design decision 5 / paper Section 4.5: "AMPI requires the number
of AMPI migratable threads to be much larger than the actual number of
processors" for load balancing to be effective.  This bench fixes the
machine (8 PEs) and the total work (class B zones) and sweeps the number
of ranks; balance quality after GreedyLB improves with the virtualization
ratio.
"""

from repro.balance import GreedyLB
from repro.bench.report import emit, render_series
from repro.workloads.btmz import BTMZConfig, run_btmz

# 9 ranks is deliberately row-misaligned: each rank's zones straddle the
# exponential x-distribution, so rank loads are very unequal and there is
# barely one rank per processor to move.
RANK_COUNTS = [9, 12, 16, 32]
PES = 8


def test_ablation_virtualization_ratio(benchmark):
    imb_after, makespans = [], []
    for nprocs in RANK_COUNTS:
        res = run_btmz(BTMZConfig("B", nprocs, PES, iterations=4),
                       GreedyLB())
        imb_after.append(res.imbalance_after)
        makespans.append(res.makespan_ns / 1e6)

    emit("ablation_granularity.txt",
         render_series("ranks", RANK_COUNTS,
                       {"imbalance_after_lb": imb_after,
                        "makespan_ms": makespans},
                       f"Ablation: LB quality vs virtualization ratio "
                       f"(class B zones on {PES} PEs, GreedyLB)"))

    # More virtualization -> finer migratable grains -> better balance:
    # post-LB imbalance falls monotonically with the rank count.
    assert all(a >= b - 1e-9 for a, b in zip(imb_after, imb_after[1:]))
    # Barely-virtualized (9 ranks on 8 PEs): LB cannot fix the imbalance.
    assert imb_after[0] > 1.2
    # Well-virtualized (4x ranks per PE): essentially perfect balance.
    assert imb_after[-1] < 1.1

    benchmark(lambda: run_btmz(BTMZConfig("B", 16, 8, iterations=2),
                               GreedyLB()))
