"""Figure 12: NAS BT-MZ with and without thread-migration load balancing.

Runs every configuration on the paper's x axis (A.8,4PE through B.64,8PE)
twice — NullLB versus GreedyLB thread migration — and checks the paper's
two observations: load balancing always helps, and same-class/same-PE
configurations converge to about the same time with LB while varying
dramatically without it.
"""

from repro.balance import GreedyLB
from repro.bench.__main__ import run_fig12
from repro.workloads.btmz import BTMZConfig, run_btmz


def test_fig12_btmz_load_balancing(benchmark):
    results = run_fig12()

    # LB never loses, and actually migrates something.
    for label, no_lb, with_lb in results:
        assert with_lb.makespan_ns < no_lb.makespan_ns, label
        assert with_lb.migrations > 0, label

    # Class B on 8 PEs: converged with LB, dramatic variation without.
    b8_no = [n.makespan_ns for (l, n, w) in results
             if l.startswith("B") and l.endswith("8PE")]
    b8_lb = [w.makespan_ns for (l, n, w) in results
             if l.startswith("B") and l.endswith("8PE")]
    assert len(b8_no) == 3
    assert max(b8_no) / min(b8_no) > 1.5       # dramatic variation
    assert max(b8_lb) / min(b8_lb) < 1.3       # about the same

    # Benchmark target: one small BT-MZ run with LB, end to end.
    benchmark(lambda: run_btmz(BTMZConfig("S", 4, 2, iterations=2),
                               GreedyLB()))
