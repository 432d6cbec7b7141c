"""Figure 5: context-switch time vs number of flows on mac_g5.

Four mechanisms (processes, pthreads, Cth user-level threads, AMPI
migratable threads) are created for real on a simulated 'mac_g5'
processor and driven through the yield-loop microbenchmark; series end
where the platform's limits refuse further creation.
"""

from _figures_common import run_context_switch_figure


def test_fig5_context_switch_macosx(benchmark):
    run_context_switch_figure(5, benchmark)
