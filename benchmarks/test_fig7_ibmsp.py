"""Figure 7: context-switch time vs number of flows on ibm_sp.

Four mechanisms (processes, pthreads, Cth user-level threads, AMPI
migratable threads) are created for real on a simulated 'ibm_sp'
processor and driven through the yield-loop microbenchmark; series end
where the platform's limits refuse further creation.
"""

from _figures_common import run_context_switch_figure


def test_fig7_context_switch_ibmsp(benchmark):
    run_context_switch_figure(7, benchmark)
