"""Table 2: practical limits on flow counts, measured by live probing.

Also claim 2: user-level threads reach the probe cap (``90000+``) on a
Linux box.
"""

#: The paper's Table 2 (Linux, Sun, IBM SP, Alpha, Mac OS, IA-64).
PAPER_TABLE2 = {
    "Process":            ["8000", "25000", "100", "1000", "500", "50000+"],
    "Kernel Threads":     ["250", "3000", "2000", "90000+", "7000", "30000+"],
    "User-level Threads": ["90000+", "90000+", "15000", "90000+", "90000+",
                           "50000+"],
}


def test_claim15_table2_matches_paper(experiment):
    rows = experiment("table2")
    assert [row[0] for row in rows] == list(PAPER_TABLE2)
    for row in rows:
        assert row[2:] == PAPER_TABLE2[row[0]], f"mismatch in {row[0]}"
