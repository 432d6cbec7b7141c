"""Table 2: practical limits on flow counts, measured by live probing."""

from repro.bench.__main__ import run_table2
from repro.flows import KernelThreadFlow, probe_limit
from repro.sim import Processor, get_platform

#: The paper's Table 2 (Linux, Sun, IBM SP, Alpha, Mac OS, IA-64).
PAPER_TABLE2 = {
    "Process":            ["8000", "25000", "100", "1000", "500", "50000+"],
    "Kernel Threads":     ["250", "3000", "2000", "90000+", "7000", "30000+"],
    "User-level Threads": ["90000+", "90000+", "15000", "90000+", "90000+",
                           "50000+"],
}


def test_table2_limits(benchmark):
    for row in run_table2():
        assert row[2:] == PAPER_TABLE2[row[0]], f"mismatch in {row[0]}"

    # Benchmark one representative probe (the Linux pthread limit).
    benchmark(lambda: probe_limit(
        KernelThreadFlow(Processor(0, get_platform("linux_x86"))),
        cap=1_000, chunk=64))
