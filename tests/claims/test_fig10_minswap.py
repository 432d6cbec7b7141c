"""Figure 10: minimal user-level context-switch routines.

The 32- and 64-bit x86 swap routines, reconstructed instruction by
instruction, on the paper's 2.2 GHz Athlon64 (paper: 16 ns and 18 ns).
"""

from repro.core.context import SWAP32, SWAP64
from repro.sim import get_platform


def test_claim11_swap_routines_16_18ns(experiment):
    rows = experiment("fig10")
    assert [row[1] for row in rows] == [13, 17]

    t32 = SWAP32.cost_ns(2.2)
    t64 = SWAP64.cost_ns(2.2)
    assert 10 < t32 < 22                        # the 16 ns ballpark
    assert 14 < t64 < 26                        # the 18 ns ballpark
    assert t64 > t32                            # more callee-saved registers
    assert SWAP32.instruction_count == 13
    assert SWAP64.instruction_count == 17


def test_claim12_one_syscall_loses_the_advantage():
    # A context switch that costs even one syscall loses the advantage
    # (Section 4.3): the modeled syscall is ~an order of magnitude bigger.
    assert get_platform("opteron").syscall_ns > 5 * SWAP32.cost_ns(2.2)
