"""Common interface and measurement harness for flow-of-control mechanisms.

A mechanism is both a *cost model* (creation cost, switch cost, OS
limits — Figures 4–8 and Table 2) and an *executor*: every mechanism
with a thread body runs real message-passing workloads through the shared
:class:`~repro.flows.runtime.FlowWorld` substrate via
:meth:`FlowMechanism.run_workload`, so thread, hybrid and
compiled-continuation flows are interchangeable behind one contract:

``create_flows`` (real resources, real limits, a run of flows at a
time) / ``run_workload`` (execute a
:class:`~repro.flows.runtime.FlowProgram` in the mechanism's ``form``) /
``switch_cost_ns`` (the mechanistic model); Table 2's probe is
:func:`repro.flows.limits.probe_limit`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence

from repro.errors import (OutOfPhysicalMemory, ReproError,
                          ThreadLimitExceeded)
from repro.flows.runtime import FlowProgram, FlowWorld, WorkloadRun
from repro.kernel import KernelTracer
from repro.sim.processor import Processor

__all__ = ["FlowMechanism", "YieldBenchmarkResult"]


@dataclass(frozen=True)
class YieldBenchmarkResult:
    """Outcome of the Figures 4–8 yield-loop microbenchmark."""

    mechanism: str
    platform: str
    n_flows: int
    rounds: int
    total_ns: float
    #: Time per flow per context switch — the figures' y axis.
    ns_per_switch: float


class FlowMechanism(ABC):
    """A way to run many flows of control on one simulated processor.

    Subclasses implement creation (acquiring the mechanism's real resources
    and hitting its real limits) and the mechanistic switch-cost model.
    Creation and teardown go a run of flows at a time: Cth, AMPI,
    pthread and compiled flows override :meth:`_create_run`/
    :meth:`_destroy_run` and ask each layer under them for a whole run
    at once; processes (``fork`` is per flow by nature), N:M threads and
    event objects implement :meth:`_create`/:meth:`_destroy`, which the
    base calls once per flow.
    """

    #: Mechanism label used in figures ("process", "pthread", "cth", "ampi").
    label: str = "?"
    #: Relative cache working set touched per switch (drives the saturating
    #: cache-penalty term; processes re-touch the most state).
    cache_weight: float = 1.0
    #: Which form of a :class:`FlowProgram` this mechanism executes
    #: (:meth:`FlowWorld.spawn`'s ``form``).
    form: str = "thread"
    #: What stops creation first (Table 2's "limiting factor" column).
    limiting_factor: str = "memory"

    def __init__(self, processor: Processor):
        self.processor = processor
        self.profile = processor.profile
        #: Each live flow's payload (its real resources, or ``None``); a
        #: flow's index is its position.
        self.flows: List[Any] = []

    # -- creation ---------------------------------------------------------

    def create_flows(self, count: int) -> None:
        """Create ``count`` more flows as one run, charging each one's
        creation cost; a count of zero or less creates none.

        A refusal (an OS limit, the address space, physical memory)
        raises at the flow the one-at-a-time road refused, with every
        flow before it created and whatever the refused one had taken
        given back.
        """
        if count > 0:
            self._create_run(count)

    def create_flow(self) -> Any:
        """Create one more flow (a run of one); returns its payload."""
        self.create_flows(1)
        return self.flows[-1]

    def destroy_all(self) -> None:
        """Tear down every flow this mechanism created, newest first, in
        one pass."""
        self._destroy_run()

    def _create_run(self, count: int) -> None:
        """Mechanism-specific creation of ``count`` flows onto
        :attr:`flows`.  The default calls :meth:`_create` once per flow,
        for mechanisms whose flows are made one at a time by nature."""
        flows = self.flows
        for _ in range(count):
            flows.append(self._create(len(flows)))

    def _create(self, index: int) -> Any:
        """One flow's creation; returns its payload (its real resources,
        or ``None`` when it holds none).  May raise an OS-limit error."""
        raise NotImplementedError

    def _destroy_run(self) -> None:
        """Tear down :attr:`flows`, newest first, leaving it empty.  The
        default calls :meth:`_destroy` once per flow."""
        flows = self.flows
        while flows:
            self._destroy(flows.pop())

    def _destroy(self, payload: Any) -> None:
        """One flow's teardown."""
        raise NotImplementedError

    def _uthread_room(self, count: int) -> int:
        """How many of ``count`` more user-level threads the
        administrative per-user memory cap allows (how the IBM SP tops
        out near 15,000 in Table 2); refuses when it allows none."""
        limit = self.profile.max_uthreads
        if limit is None:
            return count
        if self.n_flows >= limit:
            raise ThreadLimitExceeded(
                f"{self.profile.name}: per-user memory cap reached at "
                f"{limit} user-level threads")
        return min(count, limit - self.n_flows)

    def _reserve_stacks(self, count: int, nbytes: int, tag: str,
                        bases: Optional[List[int]] = None) -> Iterator:
        """``count`` thread stacks: reserved virtual ranges in the mmap
        area (at ``bases`` when given), lazily faulted — a fresh thread
        has touched only its first page, which is how real machines fit
        tens of thousands of 16 KB-reserved stacks in 1 GB of RAM.
        Returns the payloads ``(stack, touched)``: each mapping, tagged
        ``tag``, and its one touched frame.

        All or nothing, like the layers under it: a refusal of the pages
        (Table 2's memory limit) gives the reservations back.
        """
        space = self.processor.space
        stacks = space.reserve_run(count, nbytes, region="iso", bases=bases,
                                   tag=tag)
        try:
            touched = space.physical.allocate_frames(count)
        except OutOfPhysicalMemory:
            space.release_run(stacks)
            raise
        return zip(stacks, touched)

    def _release_stacks(self, payloads: Sequence[tuple]) -> None:
        """Give back the stacks and touched frames of ``payloads``, the
        last one first."""
        space = self.processor.space
        space.release_run(stack for stack, _ in reversed(payloads))
        space.physical.free_frames(touched for _, touched
                                   in reversed(payloads))

    @property
    def n_flows(self) -> int:
        """Number of currently live flows."""
        return len(self.flows)

    # -- switch-cost model ---------------------------------------------------

    @abstractmethod
    def switch_cost_ns(self, n_flows: Optional[int] = None) -> float:
        """Modeled cost of one context switch with ``n_flows`` flows live."""

    def cache_penalty_ns(self, n_flows: int) -> float:
        """Saturating cache-pollution term shared by every mechanism.

        With few flows, each switch finds its state warm in cache; as the
        set of live flows outgrows the cache, every switch pays reload
        misses.  ``penalty -> cache_penalty_ns * cache_weight`` as
        ``n_flows -> inf``, half-saturating at ``cache_flows_scale`` flows.
        This is what makes the user-level thread curves "increase slowly as
        the number of flows increases" (Section 4.1).
        """
        p = self.profile
        return (p.cache_penalty_ns * self.cache_weight
                * n_flows / (n_flows + p.cache_flows_scale))

    # -- workload execution -----------------------------------------------

    def run_workload(self, program: FlowProgram, *, trace: bool = False,
                     real_flows: bool = True) -> WorkloadRun:
        """Execute ``program`` under this mechanism, in its ``form``.

        ``real_flows`` first creates one real flow per rank, as one run
        (stacks, kernel objects...), so OS-limit and memory failures surface
        exactly as in :func:`repro.flows.limits.probe_limit`; the
        modeled switch cost at that population is charged per dispatch.
        ``trace=True`` attaches a :class:`KernelTracer` and returns its
        entries on the run (the differential oracle's byte source).
        The flows are torn down however the run ends: a refused
        creation or a failed world leaks no stack or frame.
        """
        try:
            if real_flows:
                self.create_flows(program.ranks - self.n_flows)
            world = FlowWorld(program.ranks,
                              dispatch_cost_ns=self.switch_cost_ns(
                                  program.ranks))
            tracer = KernelTracer().attach(world.kernel) if trace else None
            world.spawn(self.form, program)
            processed = world.run()
        finally:
            self.destroy_all()
        return WorkloadRun(
            mechanism=self.label,
            platform=self.profile.name,
            program=program.name,
            ranks=program.ranks,
            dispatches=world.dispatches,
            kernel_events=processed,
            work_ns=world.work_ns,
            modeled_switch_ns=world.modeled_switch_ns,
            results=world.results,
            trace=tracer.entries if tracer is not None else None,
        )

    # -- the experiment ---------------------------------------------------------

    def run_yield_benchmark(self, n_flows: int, rounds: int = 3,
                            keep: bool = False) -> YieldBenchmarkResult:
        """The paper's microbenchmark: n flows each yield ``rounds`` times.

        Creates the flows for real, as one run up to ``n_flows`` (so
        limit and memory failures surface at the flow that hits them),
        then charges ``n_flows * rounds`` modeled switches to the
        processor clock and reports time per flow per switch.  With
        ``keep`` the flows stay for the next, larger point: a grid is
        grown a run at a time.
        """
        if n_flows <= 0:
            raise ReproError("benchmark needs at least one flow")
        self.create_flows(n_flows - self.n_flows)
        start = self.processor.now
        per_switch = self.switch_cost_ns(n_flows)
        switches = n_flows * rounds
        self.processor.charge(per_switch * switches)
        total = self.processor.now - start
        if not keep:
            self.destroy_all()
        return YieldBenchmarkResult(
            mechanism=self.label,
            platform=self.profile.name,
            n_flows=n_flows,
            rounds=rounds,
            total_ns=total,
            ns_per_switch=total / switches,
        )
