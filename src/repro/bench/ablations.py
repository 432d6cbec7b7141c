"""Builders and renderers for the design-decision ablations.

Each ``run_ablation_<x>()`` sweeps one knob the paper argues about,
renders and saves its ``results/ablation_<x>.txt`` and returns the data;
:mod:`repro.bench.__main__` registers them beside the tables and figures.
"""

from __future__ import annotations

from repro.balance import GreedyLB
from repro.bench.report import emit, render_series, render_table
from repro.bigsim import BigSimEngine, TargetMachine
from repro.core import (CthScheduler, GlobalRegistry, IsomallocArena,
                        IsomallocStacks)
from repro.core.pup import pup_register
from repro.core.smp import SmpRunner
from repro.core.stacks import (MemoryAliasStacks, StackCopyStacks,
                               make_stack_manager)
from repro.core.stacks_ext import MultiSlotAliasStacks
from repro.errors import ReproError
from repro.flows import (AmpiThreadFlow, EventObjectFlow, HybridThreadFlow,
                         KernelThreadFlow, ProcessFlow, UserThreadFlow)
from repro.pose import PoseEngine, Poser
from repro.sim import Cluster, Processor, get_platform
from repro.workloads.btmz import BTMZConfig, run_btmz
from repro.workloads.md import MDConfig, MDWorkload

__all__ = ["run_ablation_page_size", "run_ablation_granularity",
           "run_ablation_swapglobal", "run_ablation_io", "run_ablation_smp",
           "run_ablation_bigsim_lb", "run_ablation_pose",
           "run_ablation_mechanisms"]


PAGE_STACK = 256 * 1024
PAGE_SIZES = [4096, 8192, 16384, 65536]


def run_ablation_page_size():
    """Switch cost (µs) of memory aliasing and stack copying per page size
    (DESIGN.md decision 2: an aliasing switch is a real per-page remap)."""
    alias_costs, copy_costs = [], []
    for page in PAGE_SIZES:
        profile = get_platform("linux_x86").with_overrides(page_size=page)
        proc = Processor(0, profile)
        alias = MemoryAliasStacks(proc.space, profile, stack_bytes=PAGE_STACK)
        a, b = alias.create_stack(), alias.create_stack()
        alias.switch_in(a)
        alias.switch_out(a)
        alias_costs.append(alias.switch_in(b) / 1000.0)

        proc2 = Processor(0, profile)
        copy = StackCopyStacks(proc2.space, profile, stack_bytes=PAGE_STACK)
        c = copy.create_stack()
        c.consume(PAGE_STACK)
        copy_costs.append(copy.switch_in(c) / 1000.0)

    emit("ablation_page_size.txt",
         render_series("page size", [f"{p // 1024}KB" for p in PAGE_SIZES],
                       {"memory_alias_us": alias_costs,
                        "stack_copy_us": copy_costs},
                       f"Ablation: switch cost (us) vs page size, "
                       f"{PAGE_STACK // 1024} KB live stacks"))
    return alias_costs, copy_costs


# 9 ranks is deliberately row-misaligned: each rank's zones straddle the
# exponential x-distribution, so rank loads are very unequal and there is
# barely one rank per processor to move.
RANK_COUNTS = [9, 12, 16, 32]
GRANULARITY_PES = 8


def run_ablation_granularity():
    """Post-GreedyLB imbalance and makespan (ms) per rank count, on a fixed
    machine and total work (§4.5: "many more threads than processors")."""
    imb_after, makespans = [], []
    for nprocs in RANK_COUNTS:
        res = run_btmz(BTMZConfig("B", nprocs, GRANULARITY_PES, iterations=4),
                       GreedyLB())
        imb_after.append(res.imbalance_after)
        makespans.append(res.makespan_ns / 1e6)

    emit("ablation_granularity.txt",
         render_series("ranks", RANK_COUNTS,
                       {"imbalance_after_lb": imb_after,
                        "makespan_ms": makespans},
                       f"Ablation: LB quality vs virtualization ratio "
                       f"(class B zones on {GRANULARITY_PES} PEs, GreedyLB)"))
    return imb_after, makespans


GOT_SIZES = [0, 8, 64, 256, 1024, 4096]


def got_switch_ns(n_globals: int, switches: int = 50) -> float:
    """Virtual ns per switch of one thread privatizing ``n_globals``."""
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
    return (cluster[0].now - start) / t.switches


def run_ablation_swapglobal():
    """Per-switch cost (µs) per GOT size in :data:`GOT_SIZES` (§3.1.1: one
    GOT image is copied per context switch)."""
    costs = [got_switch_ns(n) / 1000.0 for n in GOT_SIZES]
    emit("ablation_swapglobal.txt",
         render_series("globals", GOT_SIZES,
                       {"us_per_switch": costs},
                       "Ablation: per-switch cost (us) vs number of "
                       "privatized globals (GOT swap at every switch)"))
    return costs


IO_NS = 500_000.0
COMPUTE_NS = 50_000.0
CLIENT_COUNTS = [4, 8, 16, 32]


def server_makespan_ns(io_mode: str, clients: int) -> float:
    """Virtual makespan of ``clients`` handlers doing one I/O each."""
    cluster = Cluster(1)
    arena = IsomallocArena(cluster.platform.layout(), 1,
                           slot_bytes=64 * 1024)
    sched = CthScheduler(
        cluster[0],
        IsomallocStacks(cluster[0].space, cluster.platform, arena, 0,
                        stack_bytes=8 * 1024),
        io_mode=io_mode)
    done = []

    def handler(th, cid):
        yield ("io", IO_NS)
        th.charge(COMPUTE_NS)
        done.append(cid)

    for cid in range(clients):
        sched.create(lambda th, cid=cid: handler(th, cid))
    while len(done) < clients:
        progressed = sched.run() > 0
        progressed |= cluster.run() > 0
        if not progressed:
            raise ReproError(f"{io_mode} server stalled with "
                             f"{clients - len(done)} of {clients} "
                             f"clients unserved")
    return cluster[0].now


def run_ablation_io():
    """Server makespan (ms) per client count, naive vs intercepted
    blocking calls (§2.3: naive blocking serializes the I/O)."""
    naive = [server_makespan_ns("naive", n) / 1e6 for n in CLIENT_COUNTS]
    smart = [server_makespan_ns("intercept", n) / 1e6 for n in CLIENT_COUNTS]
    emit("ablation_io.txt",
         render_series("clients", CLIENT_COUNTS,
                       {"naive_ms": naive, "intercept_ms": smart},
                       "Ablation: server makespan (ms) vs clients, naive "
                       "blocking vs intercepted blocking calls"))
    return naive, smart


CORES = [1, 2, 4, 8]
SMP_WORK = [400_000.0] * 32


def smp_speedup(technique: str, cores: int) -> float:
    """Speedup of 32 equal items on ``cores`` under ``technique``
    (``"alias_k=<k>"`` is the k-slot aliasing extension)."""
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
    return SmpRunner(profile, mgr, cores=cores).run_batch(SMP_WORK).speedup


def run_ablation_smp():
    """Speedup per stack technique over :data:`CORES` (§3.4.1/3.4.3: one
    active thread per address space for stack copy and aliasing)."""
    series = {technique: [smp_speedup(technique, c) for c in CORES]
              for technique in ("isomalloc", "stack_copy", "memory_alias",
                                "alias_k=2", "alias_k=4")}
    emit("ablation_smp.txt",
         render_series("cores", CORES, series,
                       "Ablation: SMP speedup (total work / makespan) per "
                       "stack technique, 32 equal items", fmt="{:.2f}"))
    return series


BIGSIM_DIMS = (4, 4, 8)


def run_ablation_bigsim_lb():
    """Configuration label -> BigSim result of a dense MD droplet on 4
    host processors, with and without GreedyLB of the simulation itself."""
    wl = MDWorkload(MDConfig(dims=BIGSIM_DIMS, atom_jitter=0.9,
                             density_profile="gradient"))
    tgt = TargetMachine(dims=BIGSIM_DIMS)
    rows = []
    results = {}
    for label, kwargs in (
            ("round-robin, no LB", {"placement": "round_robin"}),
            ("blocked, no LB", {"placement": "block"}),
            ("blocked + GreedyLB", {"placement": "block",
                                    "strategy": GreedyLB(),
                                    "lb_period": 2})):
        res = BigSimEngine(4, tgt, wl, steps=6, **kwargs).run()
        results[label] = res
        rows.append([label, f"{res.host_ns_per_step / 1e6:.3f}",
                     f"{res.predicted_target_ns_per_step / 1e6:.4f}"])
    emit("ablation_bigsim_lb.txt",
         render_table(["configuration", "host ms/step",
                       "predicted target ms/step"], rows,
                      f"Ablation: BigSim of a {BIGSIM_DIMS} droplet MD "
                      f"target on 4 host processors"))
    return results


POSE_EVENTS = 40


@pup_register
class AblationPoseSink(Poser):
    """Records every token it receives, in commit order."""

    def __init__(self):
        self.seen = []

    def pup(self, p):
        self.seen = p.list_double(self.seen)

    def on_tok(self, data):
        self.seen.append(float(data))
        return []


def pose_throttle_run(window):
    """(engine, stats) for :data:`POSE_EVENTS` tokens injected in reverse
    timestamp order under throttle ``window`` (None = unlimited)."""
    cl = Cluster(2)
    eng = PoseEngine(cl, throttle_window=window)
    eng.register("sink", AblationPoseSink(), 1)
    for vt in range(POSE_EVENTS, 0, -1):     # reverse order: max straggling
        eng.schedule("sink", "tok", float(vt), at=float(vt))
    stats = eng.run()
    if eng.poser("sink").seen != [float(v) for v in
                                  range(1, POSE_EVENTS + 1)]:
        raise ReproError(f"window {window}: committed tokens out of order: "
                         f"{eng.poser('sink').seen}")
    return eng, stats


def run_ablation_pose():
    """Optimism label -> :class:`~repro.pose.PoseStats`: POSE's throttle
    window swept from unlimited Time Warp to conservative."""
    rows = []
    results = {}
    for label, window in (("unlimited (Time Warp)", None),
                          ("window = 8", 8.0),
                          ("window = 2", 2.0),
                          ("window = 0 (conservative)", 0.0)):
        eng, stats = pose_throttle_run(window)
        results[label] = stats
        rows.append([label, stats.events_processed, stats.rollbacks,
                     stats.events_rolled_back, stats.antimessages,
                     eng.deferrals])
    emit("ablation_pose.txt",
         render_table(["optimism", "processed", "rollbacks", "undone",
                       "antimsgs", "deferrals"], rows,
                      f"Ablation: optimism control, {POSE_EVENTS} events "
                      f"injected in reverse timestamp order"))
    return results


SPECTRUM_FLOWS = 1000


def run_ablation_mechanisms():
    """Mechanism label -> modeled ns per switch at 1000 flows: Figures
    4-8's four plus event objects (§2.4) and the N:M hybrid (§2.3)."""
    rows = []
    costs = {}
    for cls in (EventObjectFlow, UserThreadFlow, AmpiThreadFlow,
                HybridThreadFlow, KernelThreadFlow, ProcessFlow):
        mech = cls(Processor(0, get_platform("linux_x86")))
        cost = mech.switch_cost_ns(SPECTRUM_FLOWS)
        costs[mech.label] = cost
        rows.append([mech.label, f"{cost / 1000:.3f}",
                     f"{mech.cache_weight:.2f}"])
    emit("ablation_mechanisms.txt",
         render_table(["mechanism", "us/switch @1000 flows", "cache weight"],
                      rows,
                      "Ablation: the full flow-of-control cost spectrum "
                      "(linux_x86)"))
    return costs
