"""The BigSim engine: target processors as migratable user-level threads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.ampi import AmpiRuntime
from repro.balance.strategies import NullLB, Strategy
from repro.bigsim.target import TargetMachine
from repro.bigsim.trace import TraceEvent, TraceLog
from repro.errors import ReproError
from repro.workloads.md import MDWorkload

__all__ = ["BigSimEngine", "BigSimResult"]


@dataclass(frozen=True)
class BigSimResult:
    """Outcome of one BigSim run."""

    host_processors: int
    target_processors: int
    steps: int
    #: Host (simulating-machine) execution time for the whole run, ns.
    host_total_ns: float
    #: Host time per simulated timestep — Figure 11's y axis.
    host_ns_per_step: float
    #: Predicted target-machine time per timestep (max over target procs).
    predicted_target_ns_per_step: float
    threads_per_host_proc: float


class BigSimEngine:
    """Run an MD-like application over a simulated target machine.

    Each target processor is one AMPI rank (a migratable user-level thread)
    on the simulated host cluster.  Per timestep a target processor:

    1. computes its cube's forces — host work equal to the force
       computation (BigSim executes the real code) advances both the host
       clock and the thread's *target clock*;
    2. exchanges ghost atoms with its six torus neighbors; the messages
       carry target timestamps, and the receiver's target clock advances to
       ``max(own, sender_time + target_network_time)`` — BigSim's
       prediction rule;
    3. proceeds to the next step (tags keep steps matched, so no global
       barrier is needed — exactly the loose coupling that lets the
       simulation scale).
    """

    def __init__(self, host_procs: int, target: TargetMachine,
                 workload: MDWorkload, steps: int = 2, *,
                 platform: str = "alpha",
                 sim_overhead_ns: float = 2_000.0,
                 host_speed_ratio: float = 1.0,
                 strategy: "Strategy | None" = None,
                 lb_period: int = 0,
                 placement: str = "round_robin",
                 record_trace: bool = False):
        if target.num_procs != workload.cfg.num_cells:
            raise ReproError(
                f"target machine has {target.num_procs} processors but the "
                f"workload decomposes into {workload.cfg.num_cells} cells")
        if steps <= 0:
            raise ReproError("need at least one timestep")
        self.host_procs = host_procs
        self.target = target
        self.workload = workload
        self.steps = steps
        self.sim_overhead_ns = sim_overhead_ns
        self.host_speed_ratio = host_speed_ratio
        #: Load-balance the *simulation itself*: with ``lb_period = k``,
        #: target-processor threads hit an MPI_Migrate point every k steps,
        #: so uneven target work (e.g. dense MD cells) is spread across the
        #: host processors — the two halves of the paper composed.
        self.lb_period = lb_period
        if placement == "block":
            # Locality-preserving: contiguous target processors (torus
            # slabs) per host processor — BigSim's realistic mapping, and
            # the one that concentrates spatially-correlated load.
            per = -(-target.num_procs // host_procs)
            place = lambda rank: min(rank // per, host_procs - 1)
        elif placement == "round_robin":
            place = None
        else:
            raise ReproError(f"unknown placement {placement!r}")
        self._target_clocks: Dict[int, float] = {}
        #: Event log of the emulation (BigSim's two-phase mode); filled
        #: when ``record_trace`` and replayable with
        #: :func:`repro.bigsim.trace.replay` under other machine models.
        self.trace: Optional[TraceLog] = (
            TraceLog(target.num_procs, steps) if record_trace else None)
        self.runtime = AmpiRuntime(
            host_procs, target.num_procs, self._main,
            platform=platform,
            strategy=strategy or NullLB(),
            placement=place,
            slot_bytes=64 * 1024, stack_bytes=8 * 1024)

    def _main(self, mpi):
        cell = mpi.rank
        wl = self.workload
        tgt = self.target
        neighbors = wl.neighbors(cell)
        compute = wl.compute_ns(cell)
        ghost = wl.ghost_bytes(cell)
        tclock = 0.0
        for step in range(self.steps):
            # 1. force computation: host executes the real work.
            mpi.charge(compute / self.host_speed_ratio
                       + self.sim_overhead_ns)
            tclock += compute
            # 2. ghost exchange with target-time stamping; the message
            # carries its own size so the receiver prices the transfer
            # with the *sender's* ghost volume.
            for n in neighbors:
                mpi.send(n, (tclock, ghost), ("ghost", step, cell), ghost)
            for n in neighbors:
                sender_t, sender_bytes = yield from mpi.recv(
                    source=n, tag=("ghost", step, n))
                arrival = sender_t + tgt.message_ns(sender_bytes)
                if arrival > tclock:
                    tclock = arrival
            if self.trace is not None:
                self.trace.add(TraceEvent(
                    proc=cell, step=step, compute_ns=compute,
                    sends=tuple(neighbors),
                    receives=tuple((n, step) for n in neighbors),
                    ghost_bytes=ghost))
            if self.lb_period and (step + 1) % self.lb_period == 0:
                yield from mpi.migrate()
        self._target_clocks[cell] = tclock

    @property
    def kernel(self):
        """The host cluster's event kernel.  BigSim has no run loop of
        its own: target clocks are carried in message payloads while all
        actual dispatch — sends, receives, migrations — happens as events
        on this kernel (driven through the AMPI runtime's interleave)."""
        return self.runtime.cluster.queue

    def run(self) -> BigSimResult:
        """Execute the simulation; returns timing results."""
        self.runtime.run()
        host_total = self.runtime.makespan_ns
        predicted = max(self._target_clocks.values()) / self.steps
        return BigSimResult(
            host_processors=self.host_procs,
            target_processors=self.target.num_procs,
            steps=self.steps,
            host_total_ns=host_total,
            host_ns_per_step=host_total / self.steps,
            predicted_target_ns_per_step=predicted,
            threads_per_host_proc=self.target.num_procs / self.host_procs,
        )
