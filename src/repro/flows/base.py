"""Common interface and measurement harness for flow-of-control mechanisms.

A mechanism is both a *cost model* (creation cost, switch cost, OS
limits — Figures 4–8 and Table 2) and an *executor*: every mechanism
with a thread body runs real message-passing workloads through the shared
:class:`~repro.flows.runtime.FlowWorld` substrate via
:meth:`FlowMechanism.run_workload`, so thread, hybrid and
compiled-continuation flows are interchangeable behind one contract:

``create`` (real resources, real limits) / ``run_workload`` (execute a
:class:`~repro.flows.runtime.FlowProgram` in the mechanism's ``form``) /
``switch_cost_ns`` (the mechanistic model); Table 2's probe is
:func:`repro.flows.limits.probe_limit`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional

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
        #: Each live flow's payload (what :meth:`_create` returned); a
        #: flow's index is its position.
        self.flows: List[Any] = []

    # -- creation ---------------------------------------------------------

    @abstractmethod
    def _create(self, index: int) -> Any:
        """Mechanism-specific creation; returns the flow's payload (its
        real resources, or ``None`` when it holds none).  May raise an
        OS-limit error."""

    @abstractmethod
    def _destroy(self, payload: Any) -> None:
        """Mechanism-specific teardown of one flow's payload."""

    def _refuse_past_uthread_cap(self) -> None:
        """The administrative per-user memory cap on user-level threads
        (how the IBM SP tops out near 15,000 in Table 2)."""
        limit = self.profile.max_uthreads
        if limit is not None and self.n_flows >= limit:
            raise ThreadLimitExceeded(
                f"{self.profile.name}: per-user memory cap reached at "
                f"{limit} user-level threads")

    def _reserve_stack(self, nbytes: int, tag: str,
                       addr: Optional[int] = None) -> tuple:
        """A thread flow's stack: a reserved virtual range in the mmap
        area (at ``addr`` when given), lazily faulted — a fresh thread
        has touched only its first page, which is how real machines fit
        tens of thousands of 16 KB-reserved stacks in 1 GB of RAM.
        A refusal of that page (Table 2's memory limit) gives the
        reservation back.  Returns the payload ``(stack, touched)``: the
        mapping, tagged ``tag``, and its one touched frame."""
        space = self.processor.space
        stack = space.mmap(nbytes, region="iso", addr=addr,
                           reserve_only=True, tag=tag)
        try:
            touched = space.physical.allocate_frames(1)[0]
        except OutOfPhysicalMemory:
            space.munmap(stack)
            raise
        return stack, touched

    def _release_stack(self, payload: tuple) -> None:
        stack, touched = payload
        self.processor.space.munmap(stack)
        self.processor.space.physical.free_frames((touched,))

    def create_flow(self) -> Any:
        """Create one more flow, charging its creation cost; returns its
        payload."""
        payload = self._create(len(self.flows))
        self.flows.append(payload)
        return payload

    def destroy_all(self) -> None:
        """Tear down every flow this mechanism created."""
        while self.flows:
            self._destroy(self.flows.pop())

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

        ``real_flows`` creates one real flow per rank first (stacks,
        kernel objects...), so OS-limit and memory failures surface
        exactly as in :func:`repro.flows.limits.probe_limit`; the
        modeled switch cost at that population is charged per dispatch.
        ``trace=True`` attaches a :class:`KernelTracer` and returns its
        entries on the run (the differential oracle's byte source).
        The flows are torn down however the run ends: a refused
        creation or a failed world leaks no stack or frame.
        """
        try:
            if real_flows:
                while self.n_flows < program.ranks:
                    self.create_flow()
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

        Creates the flows for real (so limit and memory failures surface),
        then charges ``n_flows * rounds`` modeled switches to the processor
        clock and reports time per flow per switch.
        """
        if n_flows <= 0:
            raise ReproError("benchmark needs at least one flow")
        while self.n_flows < n_flows:
            self.create_flow()
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
