"""Table 1: portability of migratable-thread techniques across platforms.

Every cell is *derived* from the platform's feature flags; each is checked
against the paper.
"""

#: The paper's Table 1, cell for cell.
PAPER_TABLE1 = {
    "Stack Copy":   ["Yes", "Maybe", "Yes", "Maybe", "Yes", "Yes", "Yes",
                     "Maybe", "Yes"],
    "Isomalloc":    ["Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes",
                     "No", "Maybe"],
    "Memory Alias": ["Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes",
                     "Maybe", "Maybe"],
}


def test_claim14_table1_matches_paper(experiment):
    rows = experiment("table1")
    assert [row[0] for row in rows] == list(PAPER_TABLE1)
    for row in rows:
        assert row[1:] == PAPER_TABLE1[row[0]], f"mismatch in {row[0]}"
