"""Ablation: swap-global cost vs number of privatized globals.

The swap-global scheme (paper Section 3.1.1) copies one GOT image per
context switch.  Its cost therefore grows with the number of global
variables the program declares — negligible for typical codes (a GOT of a
few hundred entries is a sub-microsecond copy), which is why AMPI can
afford it on every switch.  This bench sweeps the GOT size and locates
where the GOT swap starts to rival the base thread-switch cost.
"""

from repro.bench.report import emit, render_series
from repro.core import CthScheduler, GlobalRegistry, IsomallocArena, \
    IsomallocStacks
from repro.sim import Cluster

GOT_SIZES = [0, 8, 64, 256, 1024, 4096]


def run_with_globals(n_globals, switches=50):
    cluster = Cluster(1)
    arena = IsomallocArena(cluster.platform.layout(), 1,
                           slot_bytes=512 * 1024)
    registry = GlobalRegistry(cluster[0].space)
    for i in range(n_globals):
        registry.declare(f"g{i}", 8)
    registry.build()
    sched = CthScheduler(
        cluster[0],
        IsomallocStacks(cluster[0].space, cluster.platform, arena, 0,
                        stack_bytes=8 * 1024),
        globals_registry=registry)

    def body(th):
        for _ in range(switches):
            yield "yield"

    t = sched.create(body, privatize_globals=n_globals > 0)
    start = cluster[0].now
    sched.run()
    total_switches = t.switches
    return (cluster[0].now - start) / total_switches


def test_ablation_got_size(benchmark):
    costs = [run_with_globals(n) / 1000.0 for n in GOT_SIZES]
    emit("ablation_swapglobal.txt",
         render_series("globals", GOT_SIZES,
                       {"us_per_switch": costs},
                       "Ablation: per-switch cost (us) vs number of "
                       "privatized globals (GOT swap at every switch)"))

    # Cost grows monotonically with GOT size...
    assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
    # ...but a typical GOT (tens of globals) adds well under one base
    # switch, and even 256 entries stays in the same order of magnitude.
    base = costs[0]
    assert costs[GOT_SIZES.index(64)] < 2 * base
    assert costs[GOT_SIZES.index(256)] < 3 * base
    # A pathological 4096-entry GOT dominates the switch entirely.
    assert costs[-1] > 10 * base

    benchmark(lambda: run_with_globals(64, switches=5))
