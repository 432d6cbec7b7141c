"""Runtime invariants checked at injection and quiescence points.

An invariant is a predicate over a :class:`ChaosContext` (the AMPI runtime
plus its fault injector) that must hold *no matter what faults fire*.
Faults may slow the run, deadlock it (a dropped message), or force
recovery — but they must never put the runtime into a state these checks
reject: a rank lost or duplicated, a load database lying about placement,
a clock running backwards, messages silently materializing.

Register new invariants with the :func:`invariant` decorator; the chaos
harness runs every registered check after each injected fault
(``point="inject"``) and once more when the run finishes
(``point="quiescence"``, where transient in-flight states are no longer
excused).  A failed check raises
:class:`~repro.errors.InvariantViolation` — the chaos subsystem's
*finding*, distinct from the faults it injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.pup import pack_value, pup_unseal, unpack_value
from repro.core.thread import ThreadState
from repro.errors import InvariantViolation, PupError

__all__ = ["ChaosContext", "INVARIANTS", "invariant", "check_invariants"]


@dataclass
class ChaosContext:
    """What the invariant checkers can see: runtime, injector, history."""

    runtime: object                    # AmpiRuntime
    injector: object                   # FaultInjector
    #: Per-processor high-water clock from the previous check (the
    #: monotonicity invariant's memory).
    last_clocks: Dict[int, float] = field(default_factory=dict)
    #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
    #: :func:`check_invariants` counts its passes and failures there.
    metrics: Optional[object] = None


#: Registry of invariant checkers: name -> fn(ctx, point) -> error or None.
#: Written only by the :func:`invariant` decorator at import time
#: (duplicates rejected); every checker keeps its run state on the
#: :class:`ChaosContext`, never here (a ``MODULE_STATE`` row in
#: ``tests/test_layering.py``).
INVARIANTS: Dict[str, Callable[[ChaosContext, str], Optional[str]]] = {}


def invariant(name: str):
    """Register an invariant checker under ``name`` (decorator).

    The checker receives ``(ctx, point)`` with ``point`` one of
    ``"inject"`` / ``"quiescence"`` and returns an error message, or
    ``None`` when the invariant holds.
    """
    def register(fn):
        if name in INVARIANTS:
            raise ValueError(f"invariant {name!r} already registered")
        INVARIANTS[name] = fn
        return fn
    return register


def check_invariants(ctx: ChaosContext, point: str = "inject") -> None:
    """Run every registered invariant; raise on any failure.

    Raises
    ------
    InvariantViolation
        Naming each failed invariant and what it saw.
    """
    failures = []
    for name, fn in INVARIANTS.items():
        msg = fn(ctx, point)
        if msg is not None:
            failures.append(f"[{name}] {msg}")
    if ctx.metrics is not None:
        ctx.metrics.counter("chaos.invariant_checks").inc(len(INVARIANTS))
        ctx.metrics.counter("chaos.invariant_failures").inc(len(failures))
    if failures:
        raise InvariantViolation(
            f"invariant violation at {point}: " + "; ".join(failures))


def _live_ranks(rt):
    """Ranks still tracked by the LB database (i.e. not finished)."""
    return [r for r in range(rt.num_ranks) if rt.db.tracks(r)]


# ---------------------------------------------------------------------------
# the registered invariants
# ---------------------------------------------------------------------------

@invariant("clock-monotonic")
def _clock_monotonic(ctx: ChaosContext, point: str) -> Optional[str]:
    """No processor's virtual clock ever moves backwards."""
    for proc in ctx.runtime.cluster.processors:
        last = ctx.last_clocks.get(proc.id, 0.0)
        if proc.now < last:
            return (f"pe{proc.id} clock went backwards: "
                    f"{last:.1f} -> {proc.now:.1f} ns")
        ctx.last_clocks[proc.id] = proc.now
    return None


@invariant("unique-rank-placement")
def _unique_rank_placement(ctx: ChaosContext, point: str) -> Optional[str]:
    """Every live rank's thread lives on exactly one scheduler.

    A thread mid-migration is on zero schedulers — excused while faults
    are still flying, a violation once the run has quiesced.
    """
    rt = ctx.runtime
    for rank in _live_ranks(rt):
        thread = rt.rank_thread[rank]
        if thread.state is ThreadState.MIGRATING:
            if point == "quiescence":
                return f"rank {rank} still MIGRATING at quiescence"
            continue
        hosts = [s.processor.id for s in rt.schedulers
                 if s.threads.get(thread.tid) is thread]
        if len(hosts) != 1:
            return f"rank {rank} hosted by processors {hosts} (want one)"
        if hosts[0] != thread.scheduler.processor.id:
            return (f"rank {rank}: thread.scheduler says "
                    f"pe{thread.scheduler.processor.id}, found on "
                    f"pe{hosts[0]}")
    return None


@invariant("lb-placement-consistent")
def _lb_placement(ctx: ChaosContext, point: str) -> Optional[str]:
    """The LB database's placement matches where ranks actually are.

    Skipped while a rebalance transaction is mid-flight: the manager
    records the decided placement first and the migrations catch up
    before the barrier releases, so inside that window the database
    legitimately leads reality.
    """
    rt = ctx.runtime
    if rt.rebalance_in_progress:
        return None
    placement = rt.db.placement()
    for rank, pe in placement.items():
        thread = rt.rank_thread[rank]
        if thread.state is ThreadState.MIGRATING:
            continue  # the arrival callback re-syncs the database
        actual = thread.scheduler.processor.id
        if actual != pe:
            return (f"rank {rank}: LBDatabase says pe{pe}, thread is on "
                    f"pe{actual}")
    return None


@invariant("no-rank-on-failed-pe")
def _no_rank_on_failed_pe(ctx: ChaosContext, point: str) -> Optional[str]:
    """Fail-stop means fail-stop: no live rank runs on a failed processor."""
    rt = ctx.runtime
    for rank in _live_ranks(rt):
        thread = rt.rank_thread[rank]
        if thread.state is ThreadState.MIGRATING:
            continue
        proc = thread.scheduler.processor
        if proc.failed:
            return f"rank {rank} resident on failed pe{proc.id}"
    return None


@invariant("send-arrival-conservation")
def _send_arrival_conservation(ctx: ChaosContext,
                               point: str) -> Optional[str]:
    """In-flight messages are conserved through the injector.

    Every faultable send schedules exactly one arrival, minus drops,
    plus duplicates — nothing silently appears or vanishes beyond what
    the schedule recorded.
    """
    c = ctx.injector.counters
    expect = c["sends_seen"] - c["dropped"] + c["duplicated"]
    got = ctx.injector.arrivals_scheduled
    if got != expect:
        return (f"{got} arrivals scheduled for {c['sends_seen']} sends "
                f"(- {c['dropped']} drops + {c['duplicated']} dups "
                f"= {expect} expected)")
    return None


@invariant("pup-roundtrip-stable")
def _pup_roundtrip_stable(ctx: ChaosContext, point: str) -> Optional[str]:
    """pack -> unpack -> pack of runtime state is byte-identical."""
    rt = ctx.runtime
    probe = {"placement": {int(r): int(pe)
                           for r, pe in rt.db.placement().items()},
             "epoch": int(rt.db.epoch),
             "finished": int(rt._finished)}
    blob = pack_value(probe)
    if pack_value(unpack_value(blob)) != blob:
        return "pack_value roundtrip of runtime state is not byte-stable"
    return None


@invariant("checkpoint-integrity")
def _checkpoint_integrity(ctx: ChaosContext, point: str) -> Optional[str]:
    """Stored checkpoints the injector did not corrupt still verify."""
    if point != "quiescence":
        return None  # checked once at the end; restores check en route
    for record in ctx.runtime.checkpointer.records():
        if record.key in ctx.injector.corrupted_keys:
            continue
        try:
            pup_unseal(record.blob)
        except PupError as e:
            return (f"checkpoint {record.key!r} failed its seal without "
                    f"an injected corruption: {e}")
    return None
