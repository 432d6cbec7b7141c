"""Figure 11: BigSim MD simulation time per step vs simulating processors.

The cube-decomposition MD application over a Blue Gene-like target
machine, every target processor a user-level thread, on 4–64 simulating
processors.  The default target is 2,000 processors (500 threads per
simulating processor at p = 4); ``REPRO_FULL=1 python -m repro.bench
fig11`` runs the paper's full 200,000.
"""


def test_claim16_bigsim_scaling(experiment):
    procs, series, targets = experiment("fig11")

    times = series["time_per_step_ms"]
    # Excellent scalability: strictly decreasing, near-linear speedup.
    assert all(a > b for a, b in zip(times, times[1:]))
    speedup_4_to_64 = times[0] / times[-1]
    assert speedup_4_to_64 > 8.0          # >= half of the ideal 16x

    # The Section 4.4 claim: many thousands of flows per processor is
    # feasible with user-level threads (and Table 2 says it isn't with
    # processes or kernel threads).
    threads_per_proc = targets / procs[0]
    assert threads_per_proc >= 500
