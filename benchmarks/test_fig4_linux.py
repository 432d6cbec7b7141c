"""Figure 4: context-switch time vs number of flows on linux_x86.

Four mechanisms (processes, pthreads, Cth user-level threads, AMPI
migratable threads) are created for real on a simulated 'linux_x86'
processor and driven through the yield-loop microbenchmark; series end
where the platform's limits refuse further creation.
"""

from _figures_common import run_context_switch_figure


def test_fig4_context_switch_linux(benchmark):
    run_context_switch_figure(4, benchmark)
