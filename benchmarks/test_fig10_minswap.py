"""Figure 10: minimal user-level context-switch routines.

Reconstructs the 32- and 64-bit x86 swap routines instruction by
instruction, reports their modeled cost on the paper's 2.2 GHz Athlon64
(paper: 16 ns and 18 ns), executes them for real against simulated memory,
and wall-clock benchmarks the executable model.
"""

from repro.bench.__main__ import run_fig10
from repro.core.context import MinimalSwap, RegisterFile, SWAP32, SWAP64
from repro.sim import get_platform
from repro.vm import AddressSpace, PhysicalMemory
from repro.vm.layout import MB


def test_fig10_minimal_swap(benchmark):
    run_fig10()

    t32 = SWAP32.cost_ns(2.2)
    t64 = SWAP64.cost_ns(2.2)
    assert 10 < t32 < 22                        # the 16 ns ballpark
    assert 14 < t64 < 26                        # the 18 ns ballpark
    assert t64 > t32                            # more callee-saved registers
    assert SWAP32.instruction_count == 13
    assert SWAP64.instruction_count == 17

    # A context switch that costs even one syscall loses the advantage
    # (Section 4.3): the modeled syscall is ~an order of magnitude bigger.
    assert get_platform("opteron").syscall_ns > 5 * t32

    # Wall-clock benchmark: execute the real swap model round trip.
    space = AddressSpace(get_platform("linux_x86").layout(),
                         PhysicalMemory(4 * MB))
    stacks = space.mmap(2 * 4096, region="stack")
    ctx = space.mmap(4096, region="data")
    regs = RegisterFile("x86_32")
    MinimalSwap.seed_context(space, "x86_32", ctx.start + 8,
                             stacks.start + 8192)
    regs["sp"] = stacks.start + 4096

    def roundtrip():
        SWAP32.execute(space, regs, ctx.start, ctx.start + 8)
        SWAP32.execute(space, regs, ctx.start + 8, ctx.start)

    benchmark(roundtrip)
