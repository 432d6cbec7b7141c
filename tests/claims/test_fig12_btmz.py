"""Figure 12: NAS BT-MZ with and without thread-migration load balancing.

Every configuration on the paper's x axis (A.8,4PE through B.64,8PE) runs
twice, NullLB versus GreedyLB thread migration.
"""


def test_claim18_btmz_lb_converges(experiment):
    results = experiment("fig12")

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
