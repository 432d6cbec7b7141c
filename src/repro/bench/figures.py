"""Series builders for the paper's figures."""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.balance.strategies import GreedyLB, NullLB
from repro.bigsim import BigSimEngine, TargetMachine
from repro.core.context import SWAP32, SWAP64
from repro.core.isomalloc import IsomallocArena
from repro.core.stacks import make_stack_manager
from repro.errors import OSLimitError, OutOfPhysicalMemory, \
    OutOfVirtualAddressSpace
from repro.flows import (AmpiThreadFlow, KernelThreadFlow, ProcessFlow,
                         UserThreadFlow)
from repro.sim import Processor, get_platform
from repro.workloads.btmz import BTMZConfig, BTMZResult, run_btmz
from repro.workloads.md import MDConfig, MDWorkload

__all__ = ["FIGURE_PLATFORMS", "FLOW_GRID", "STACK_SIZES",
           "context_switch_cell", "context_switch_series",
           "stack_size_series",
           "minimal_swap_rows", "bigsim_series", "btmz_series",
           "full_scale"]

#: Figure number -> platform, as in the paper's Section 4.1.
FIGURE_PLATFORMS = {
    4: "linux_x86",
    5: "mac_g5",
    6: "solaris",
    7: "ibm_sp",
    8: "alpha",
}

#: Flow counts swept in Figures 4-8.
FLOW_GRID = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 2000, 5000,
             10_000, 20_000, 50_000]

#: Stack sizes swept in Figure 9 ("from 8KB to 8MB ... using alloca()").
STACK_SIZES = [8 * 1024 << i for i in range(11)]      # 8 KB .. 8 MB


def full_scale() -> bool:
    """Whether full-paper-scale runs were requested (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "") == "1"


# ---------------------------------------------------------------------------
# Figures 4-8: context switch time vs number of flows
# ---------------------------------------------------------------------------

#: Figure 4-8 series order.
_FIGURE_MECHS = ("process", "pthread", "cth", "ampi")


def context_switch_cell(params: Dict, seed) -> Dict:
    """One mechanism's Figure 4-8 series on one platform, as a cell.

    ``params = {"platform": str, "mechanism": label, "grid": [int...],
    "rounds": int}`` → ``{"mechanism": label, "ys": [µs-or-None...]}``.
    """
    from repro.flows import MECHANISMS
    cls = MECHANISMS[params["mechanism"]]
    proc = Processor(0, get_platform(params["platform"]))
    if cls is AmpiThreadFlow:
        mech = cls(proc, slot_bytes=32 * 1024)
    else:
        mech = cls(proc)
    ys: List[Optional[float]] = []
    dead = False
    for n in params["grid"]:
        if dead:
            ys.append(None)
            continue
        try:
            res = mech.run_yield_benchmark(n, rounds=params["rounds"],
                                           keep=True)
            ys.append(res.ns_per_switch / 1000.0)         # µs
        except (OSLimitError, OutOfPhysicalMemory,
                OutOfVirtualAddressSpace):
            ys.append(None)
            dead = True
    mech.destroy_all()
    return {"mechanism": mech.label, "ys": ys}


def context_switch_series(platform_name: str,
                          grid: Sequence[int] = FLOW_GRID,
                          rounds: int = 3,
                          ) -> Tuple[List[int], Dict[str, List[Optional[float]]]]:
    """Time per flow per context switch (µs) for the four mechanisms.

    Each mechanism runs on a fresh simulated processor of the platform and
    is driven through the real creation + yield-loop microbenchmark; a
    mechanism's series ends (None) where its platform limit refuses further
    creation — the same truncation the paper's plots show.

    One :func:`context_switch_cell` per mechanism, in series order.
    """
    grid = sorted(grid)
    out: Dict[str, List[Optional[float]]] = {}
    for key in _FIGURE_MECHS:
        value = context_switch_cell(
            {"platform": platform_name, "mechanism": key,
             "grid": grid, "rounds": rounds}, None)
        out[value["mechanism"]] = value["ys"]
    return grid, out


# ---------------------------------------------------------------------------
# Figure 9: context switch time vs stack size for migratable threads
# ---------------------------------------------------------------------------

def stack_size_series(platform_name: str = "linux_x86",
                      sizes: Sequence[int] = STACK_SIZES,
                      ) -> Tuple[List[int], Dict[str, List[float]]]:
    """Per-switch time (µs) of the three migration techniques vs live
    stack bytes, on the Figure 9 machine (x86 Linux).

    For each size two threads are created, consume the full stack with
    alloca(), and one switch cycle (out + in) is costed through the real
    stack managers.
    """
    profile = get_platform(platform_name)
    out: Dict[str, List[float]] = {"stack_copy": [], "isomalloc": [],
                                   "memory_alias": []}
    for size in sizes:
        for technique in out:
            proc = Processor(0, profile)
            arena = IsomallocArena(proc.layout, 1,
                                   slot_bytes=2 * size + 64 * 1024)
            mgr = make_stack_manager(technique, proc.space, profile, size,
                                     arena)
            a, b = mgr.create_stack(), mgr.create_stack()
            a.consume(size)
            b.consume(size)
            # Warm up: make a the active thread where that is meaningful.
            mgr.switch_in(a)
            cost = profile.uthread_switch_ns
            cost += mgr.switch_out(a)
            cost += mgr.switch_in(b)
            out[technique].append(cost / 1000.0)          # µs
            mgr.switch_out(b)
            mgr.destroy_stack(a)
            mgr.destroy_stack(b)
    return list(sizes), out


# ---------------------------------------------------------------------------
# Figure 10: minimal context switching
# ---------------------------------------------------------------------------

def minimal_swap_rows(cpu_ghz: float = 2.2) -> List[List]:
    """Rows describing the two minimal swap routines on the 2.2 GHz
    Athlon64 of Figure 10 (paper: 16 ns / 18 ns)."""
    rows = []
    for name, swap in (("swap32 (x86, 32-bit)", SWAP32),
                       ("swap64 (x86-64)", SWAP64)):
        rows.append([
            name,
            swap.instruction_count,
            swap.memory_ops,
            f"{swap.cycles():.1f}",
            f"{swap.cost_ns(cpu_ghz):.1f}",
        ])
    return rows


# ---------------------------------------------------------------------------
# Figure 11: BigSim MD simulation time per step
# ---------------------------------------------------------------------------

def bigsim_series(host_procs: Sequence[int] = (4, 8, 16, 32, 64),
                  steps: int = 2,
                  ) -> Tuple[List[int], Dict[str, List[float]], int]:
    """Host time per simulated MD step (ms) vs simulating processors.

    Default target machine is 2,000 processors (a 10x10x20 torus); with
    ``REPRO_FULL=1`` the paper's full 200,000 (50x50x80) is used — slow in
    host wall-clock but identical in structure.
    """
    dims = (50, 50, 80) if full_scale() else (10, 10, 20)
    cfg = MDConfig(dims=dims)
    workload = MDWorkload(cfg)
    times: List[float] = []
    for p in host_procs:
        engine = BigSimEngine(p, TargetMachine(dims=dims), workload,
                              steps=steps)
        res = engine.run()
        times.append(res.host_ns_per_step / 1e6)          # ms
    return list(host_procs), {"time_per_step_ms": times}, cfg.num_cells


# ---------------------------------------------------------------------------
# Figure 12: BT-MZ with and without load balancing
# ---------------------------------------------------------------------------

#: The paper's x-axis configurations (class.NPROCS, PEs).
BTMZ_CASES = [("A", 8, 4), ("A", 16, 8), ("B", 16, 8), ("B", 32, 8),
              ("B", 64, 8)]


def btmz_series(cases: Sequence[Tuple[str, int, int]] = tuple(BTMZ_CASES),
                iterations: int = 6,
                ) -> List[Tuple[str, BTMZResult, BTMZResult]]:
    """(label, without-LB result, with-LB result) per configuration."""
    out = []
    for cls_name, nprocs, npes in cases:
        cfg = BTMZConfig(cls_name, nprocs, npes, iterations=iterations)
        no_lb = run_btmz(cfg, NullLB())
        with_lb = run_btmz(cfg, GreedyLB())
        out.append((cfg.label, no_lb, with_lb))
    return out
