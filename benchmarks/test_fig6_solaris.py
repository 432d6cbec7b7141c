"""Figure 6: context-switch time vs number of flows on solaris.

Four mechanisms (processes, pthreads, Cth user-level threads, AMPI
migratable threads) are created for real on a simulated 'solaris'
processor and driven through the yield-loop microbenchmark; series end
where the platform's limits refuse further creation.
"""

from _figures_common import run_context_switch_figure


def test_fig6_context_switch_solaris(benchmark):
    run_context_switch_figure(6, benchmark)
