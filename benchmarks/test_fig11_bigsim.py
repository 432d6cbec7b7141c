"""Figure 11: BigSim MD simulation time per step vs simulating processors.

Runs the cube-decomposition MD application over a Blue Gene-like target
machine with every target processor as a user-level thread, on 4–64
simulating processors.  Default target is 2,000 processors (500 threads
per simulating processor at p = 4); ``REPRO_FULL=1`` uses the paper's full
200,000 (50,000 per simulating processor at p = 4).
"""

from repro.bench.__main__ import run_fig11
from repro.bigsim import BigSimEngine, TargetMachine
from repro.workloads.md import MDConfig, MDWorkload


def test_fig11_bigsim_scaling(benchmark):
    procs, series, targets = run_fig11()

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

    # Benchmark target: one full (small) BigSim run end to end.
    wl = MDWorkload(MDConfig(dims=(4, 4, 4)))

    def small_run():
        BigSimEngine(4, TargetMachine(dims=(4, 4, 4)), wl, steps=1).run()

    benchmark(small_run)
