"""Wiring faults into an AMPI run and classifying what comes out.

:func:`wire_ampi_faults` attaches a :class:`FaultInjector` to a built
:class:`~repro.ampi.runtime.AmpiRuntime`'s cluster bus — every fault
site, processor crash/evacuation at coordinated checkpoint barriers
included, is a channel the runtimes publish there — and checks the
invariants after each applied fault.

:func:`drive_ampi_chaos` runs a chaos workload under a schedule and
reduces the run to a :class:`ChaosResult` with one of four outcomes:

* ``pass`` — the run finished, every invariant holds, the answer is right;
* ``detected`` — the runtime *cleanly* reported an injected problem (a
  deadlock from a dropped message, a checkpoint that failed its integrity
  check): acceptable behavior under fault;
* ``violation`` — an invariant failed or the run finished with a wrong
  answer: the finding chaos testing exists to surface;
* ``error`` — a non-library exception escaped: a bug, full stop.

The result also carries SHA-256 hashes of the message trace and final
state, so "reproduces byte-identically" is a string comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.faults import FaultEvent, FaultSchedule
from repro.chaos.injector import FaultInjector
from repro.chaos.invariants import ChaosContext, check_invariants
from repro.errors import InvariantViolation, ReproError

__all__ = ["ChaosResult", "wire_ampi_faults", "build_ampi_chaos",
           "drive_ampi_chaos"]


@dataclass(frozen=True)
class ChaosResult:
    """One chaos run, reduced to its reproducible essentials."""

    workload: str
    seed: Optional[int]
    outcome: str                       # pass | detected | violation | error
    detail: str
    schedule: List[FaultEvent]         # faults actually applied
    # SHA-256 of the sends, Cluster.send_digest (a dumped kernel trace
    # is analyzed by ``python -m repro.query report`` instead).
    trace_hash: str
    state_hash: str                    # SHA-256 of the final state
    makespan_ns: float
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether this run is a chaos *finding* (violation or error)."""
        return self.outcome in ("violation", "error")

    def fingerprint(self) -> str:
        """One hash identifying the run's full observable behavior."""
        return hashlib.sha256(
            (self.trace_hash + self.state_hash).encode()).hexdigest()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = f" ({self.detail})" if self.detail else ""
        return (f"[{self.workload} seed={self.seed}] {self.outcome}{tail}; "
                f"{len(self.schedule)} faults, "
                f"fingerprint {self.fingerprint()[:12]}")


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def wire_ampi_faults(rt, injector: FaultInjector) -> ChaosContext:
    """Attach an injector to an AMPI runtime's cluster bus.

    Returns the :class:`ChaosContext` the invariant checkers run against;
    invariants are checked after every applied fault.
    """
    injector.attach(rt.cluster)
    ctx = ChaosContext(runtime=rt, injector=injector)
    injector.on_inject = lambda ev: check_invariants(ctx, "inject")
    return ctx


# ---------------------------------------------------------------------------
# driving
# ---------------------------------------------------------------------------

def build_ampi_chaos(workload, schedule: FaultSchedule):
    """Build ``workload``'s runtime, traced and fault-wired, not yet run.

    Returns ``(rt, check, injector, ctx)``.  The one build step a full
    chaos run and a partial replay (``repro.query.replay_at``) share, so
    both see the same event sequence.
    """
    rt, check = workload.build()
    rt.cluster.enable_tracing()    # before the injector's net.send filter
    injector = FaultInjector(schedule)
    return rt, check, injector, wire_ampi_faults(rt, injector)


def drive_ampi_chaos(workload, schedule: FaultSchedule,
                     seed: Optional[int] = None,
                     observe=None) -> ChaosResult:
    """Run one chaos workload under one fault schedule and classify it.

    ``workload`` is any object with ``name`` and
    ``build() -> (runtime, check_fn)`` (see
    :mod:`repro.chaos.workloads`); ``check_fn(rt)`` judges the final
    answer.

    ``observe``, if given, is called ``observe(rt, ctx)`` after the
    faults are wired but before the run starts — the attachment point
    for a :class:`~repro.obs.collect.RunObserver` (subscribe, set
    ``ctx.metrics``, ...).  Observation must be pure: the chaos
    channels' values pass through observers unchanged, so fingerprints
    are identical with or without one (pinned by the golden tests).
    """
    rt, check, injector, ctx = build_ampi_chaos(workload, schedule)
    if observe is not None:
        observe(rt, ctx)
    outcome, detail = "pass", ""
    try:
        rt.run()
        check_invariants(ctx, "quiescence")
        if not check(rt):
            outcome = "violation"
            detail = "workload finished with an incorrect result"
    except InvariantViolation as e:
        outcome, detail = "violation", str(e)
    except ReproError as e:
        outcome, detail = "detected", f"{type(e).__name__}: {e}"
    except Exception as e:  # noqa: BLE001 - the whole point is to catch it
        outcome, detail = "error", f"{type(e).__name__}: {e}"
    # The run is judged: the checker hook (injector -> ctx -> runtime,
    # whose bus holds the injector) is not needed any more.
    injector.on_inject = None
    return ChaosResult(
        workload=workload.name,
        seed=seed,
        outcome=outcome,
        detail=detail,
        schedule=schedule.script(),
        trace_hash=rt.cluster.send_digest.hexdigest(),
        state_hash=_hash_state(rt, injector, outcome, detail),
        makespan_ns=rt.makespan_ns,
        counters=dict(injector.counters),
    )


def _hash_state(rt, injector: FaultInjector, outcome: str,
                detail: str) -> str:
    """SHA-256 of the final runtime state and fault bookkeeping."""
    state = (
        tuple(rt.pe_of_ranks()),
        rt.makespan_ns,
        rt._finished,
        tuple(p.failed for p in rt.cluster.processors),
        tuple(sorted(injector.counters.items())),
        tuple(repr(ev) for ev in injector.schedule.injected),
        outcome,
        detail,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()
