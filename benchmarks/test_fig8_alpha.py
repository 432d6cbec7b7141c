"""Figure 8: context-switch time vs number of flows on alpha.

Four mechanisms (processes, pthreads, Cth user-level threads, AMPI
migratable threads) are created for real on a simulated 'alpha'
processor and driven through the yield-loop microbenchmark; series end
where the platform's limits refuse further creation.
"""

from _figures_common import run_context_switch_figure


def test_fig8_context_switch_alpha(benchmark):
    run_context_switch_figure(8, benchmark)
