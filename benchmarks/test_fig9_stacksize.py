"""Figure 9: context-switch time vs stack size for migratable threads.

Sweeps live stack size from 8 KB to 8 MB (the paper's alloca() experiment)
through the three real stack managers on the Linux x86 model and checks the
paper's qualitative result: stack copying becomes unusable past ~20 KB,
isomalloc is flat and fastest, memory aliasing sits at mmap cost (~4 µs)
with only slow growth.
"""

from repro.bench.__main__ import run_fig9
from repro.core.stacks import MemoryAliasStacks
from repro.sim import Processor, get_platform


def test_fig9_stack_size_sweep(benchmark):
    sizes, series = run_fig9()

    idx20k = min(range(len(sizes)), key=lambda i: abs(sizes[i] - 20 * 1024))
    copy, iso, alias = (series["stack_copy"], series["isomalloc"],
                        series["memory_alias"])

    # Stack copy: linear in stack size, "unusably slow" past ~20 KB.
    assert copy[idx20k] > 10.0                    # tens of microseconds
    assert copy[-1] > 1_000.0                     # 8 MB: milliseconds
    assert copy[-1] / copy[0] > 500               # ~linear over 3 decades

    # Isomalloc: fastest overall, no dependence on stack size.
    assert max(iso) == min(iso)
    assert all(iso[i] <= alias[i] for i in range(len(sizes)))
    assert all(iso[i] <= copy[i] for i in range(len(sizes)))

    # Memory alias: ~4 us at small sizes, grows only slowly, and beats
    # copying decisively for large stacks.
    assert 2.0 < alias[0] < 8.0
    assert alias[-1] < 10 * alias[0]              # "very slowly"
    assert alias[-1] < copy[-1] / 50              # much faster than copying

    # pytest-benchmark target: a real aliasing switch (remap) round trip.
    proc = Processor(0, get_platform("linux_x86"))
    mgr = MemoryAliasStacks(proc.space, proc.profile, stack_bytes=64 * 1024)
    a, b = mgr.create_stack(), mgr.create_stack()

    def cycle():
        mgr.switch_in(a)
        mgr.switch_out(a)
        mgr.switch_in(b)
        mgr.switch_out(b)

    benchmark(cycle)
