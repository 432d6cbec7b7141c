"""Table 1: portability of migratable-thread techniques across platforms.

Regenerates the Yes/Maybe/No matrix by *deriving* each cell from the
platform's feature flags, and checks every cell against the paper.
"""

from repro.bench.__main__ import run_table1
from repro.bench.tables import table1_rows

#: The paper's Table 1, cell for cell.
PAPER_TABLE1 = {
    "Stack Copy":   ["Yes", "Maybe", "Yes", "Maybe", "Yes", "Yes", "Yes",
                     "Maybe", "Yes"],
    "Isomalloc":    ["Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes",
                     "No", "Maybe"],
    "Memory Alias": ["Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes",
                     "Maybe", "Maybe"],
}


def test_table1_portability(benchmark):
    for row in run_table1():
        assert row[1:] == PAPER_TABLE1[row[0]], f"mismatch in {row[0]}"
    benchmark(table1_rows)
