"""Ablation: SMP throughput of the three stack techniques.

Paper Sections 3.4.1/3.4.3: stack copying and memory aliasing allow only
one active thread per address space, so extra cores of an SMP node buy
nothing; isomalloc threads run anywhere.  This bench sweeps the core count
and reports effective speedup per technique.
"""

from repro.bench.report import emit, render_series
from repro.core.isomalloc import IsomallocArena
from repro.core.smp import SmpRunner
from repro.core.stacks import make_stack_manager
from repro.core.stacks_ext import MultiSlotAliasStacks
from repro.sim import Processor, get_platform

CORES = [1, 2, 4, 8]
WORK = [400_000.0] * 32


def run(technique, cores):
    proc = Processor(0, get_platform("linux_x86"))
    profile = proc.profile
    if technique.startswith("alias_k"):
        mgr = MultiSlotAliasStacks(proc.space, profile,
                                   stack_bytes=8 * 1024,
                                   slots=int(technique.split("=")[1]))
    else:
        arena = IsomallocArena(proc.layout, 1, slot_bytes=128 * 1024)
        mgr = make_stack_manager(technique, proc.space, profile, 8 * 1024,
                                 arena)
    return SmpRunner(profile, mgr, cores=cores).run_batch(WORK)


def test_ablation_smp_speedup(benchmark):
    series = {}
    for technique in ("isomalloc", "stack_copy", "memory_alias",
                      "alias_k=2", "alias_k=4"):
        series[technique] = [run(technique, c).speedup for c in CORES]
    emit("ablation_smp.txt",
         render_series("cores", CORES, series,
                       "Ablation: SMP speedup (total work / makespan) per "
                       "stack technique, 32 equal items", fmt="{:.2f}"))

    iso, copy, alias = (series["isomalloc"], series["stack_copy"],
                        series["memory_alias"])
    # Isomalloc scales; the single-address techniques are pinned near 1.
    assert iso[-1] > 6.0
    assert all(s < 1.05 for s in copy)
    assert all(s < 1.05 for s in alias)
    # At one core all techniques are within overhead of each other.
    assert abs(iso[0] - alias[0]) < 0.1
    # Our k-slot extension interpolates: ~min(k, cores) speedup.
    at4 = CORES.index(4)
    assert 1.8 < series["alias_k=2"][at4] < 2.2
    assert series["alias_k=4"][at4] > 3.5

    benchmark(lambda: run("isomalloc", 4))
