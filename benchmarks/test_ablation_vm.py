"""Ablation: page size vs the memory-aliasing switch cost.

DESIGN.md design decision 2: the page-table-level VM substrate makes a
memory-aliasing switch a real per-page remap, so its cost depends on page
size for a fixed stack.  This bench sweeps the page size and shows the
trade-off (bigger pages -> fewer page-table edits per switch -> cheaper
aliasing), plus where the techniques cross over.
"""

from repro.bench.report import emit, render_series
from repro.core.stacks import MemoryAliasStacks, StackCopyStacks
from repro.sim import Processor, get_platform

STACK = 256 * 1024
PAGE_SIZES = [4096, 8192, 16384, 65536]


def test_ablation_page_size(benchmark):
    alias_costs, copy_costs = [], []
    for page in PAGE_SIZES:
        profile = get_platform("linux_x86").with_overrides(page_size=page)
        proc = Processor(0, profile)
        alias = MemoryAliasStacks(proc.space, profile, stack_bytes=STACK)
        a, b = alias.create_stack(), alias.create_stack()
        alias.switch_in(a)
        alias.switch_out(a)
        alias_costs.append(alias.switch_in(b) / 1000.0)

        proc2 = Processor(0, profile)
        copy = StackCopyStacks(proc2.space, profile, stack_bytes=STACK)
        c = copy.create_stack()
        c.consume(STACK)
        copy_costs.append(copy.switch_in(c) / 1000.0)

    emit("ablation_page_size.txt",
         render_series("page size", [f"{p // 1024}KB" for p in PAGE_SIZES],
                       {"memory_alias_us": alias_costs,
                        "stack_copy_us": copy_costs},
                       f"Ablation: switch cost (us) vs page size, "
                       f"{STACK // 1024} KB live stacks"))

    # Bigger pages make aliasing cheaper (fewer PTE edits per switch)...
    assert alias_costs == sorted(alias_costs, reverse=True)
    # ...while stack copying is indifferent to page size.
    assert max(copy_costs) - min(copy_costs) < 1e-9
    # At this stack size, aliasing beats copying for every page size.
    assert all(a < c for a, c in zip(alias_costs, copy_costs))

    profile = get_platform("linux_x86")
    proc = Processor(0, profile)
    alias = MemoryAliasStacks(proc.space, profile, stack_bytes=STACK)
    a, b = alias.create_stack(), alias.create_stack()

    def cycle():
        alias.switch_in(a)
        alias.switch_out(a)
        alias.switch_in(b)
        alias.switch_out(b)

    benchmark(cycle)
