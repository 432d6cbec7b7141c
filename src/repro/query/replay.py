"""Time travel over replayable runs: re-execute, diff, stop, dump.

Runs in this codebase are byte-replayable — a chaos run is fully
determined by (workload, seed) and a flows run by (program, form,
ranks, ...) — so "un-executing" a finished run needs no reverse
execution at all: re-run it forward under a recording tracer and stop
where you want to look.  This module is that substrate:

* :func:`parse_runspec` — the textual run coordinates
  (``chaos:stencil:seed=3``, ``flows:ring:form=compiled:ranks=4``);
* :func:`run_recorded` — re-execute a runspec to completion and return
  its trace entries;
* :func:`first_divergence` — the bisect primitive: first index where
  two traces disagree;
* :func:`replay_at` — re-execute up to a virtual time (``250000``) or
  event count (``@120``) and dump the reconstructed cluster state —
  per-PE queues, rank placement, in-flight messages, LB database — as
  a canonical JSON-able dict.

Everything run-producing is imported lazily inside the builders:
:mod:`repro.obs` imports the query engines, so this module must not
pull obs/chaos/flows at import time.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import QueryError

__all__ = ["RunSpec", "parse_runspec", "parse_timespec", "run_recorded",
           "first_divergence", "replay_at"]

_FORMS = ("thread", "compiled")

#: ``flows:`` program -> the integer params its builder takes, with the
#: value a runspec that omits one runs under.  These are the only keys
#: the program's runspecs accept (beside ``form``), so no key can be
#: accepted and then ignored.
_FLOWS_PARAMS = {
    "spin": dict(ranks=4, rounds=3),
    "ring": dict(ranks=4, rounds=3, seed=0),
    "pingpong": dict(ranks=4, rounds=3, seed=0),
    "stencil": dict(ranks=4, cells=8, steps=4, seed=1),
}


class RunSpec:
    """Parsed run coordinates: kind, target, and integer/string params."""

    __slots__ = ("kind", "target", "params")

    def __init__(self, kind: str, target: str,
                 params: Dict[str, Any]) -> None:
        self.kind = kind
        self.target = target
        self.params = dict(params)

    def canonical(self) -> str:
        tail = "".join(f":{k}={self.params[k]}"
                       for k in sorted(self.params))
        return f"{self.kind}:{self.target}{tail}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RunSpec {self.canonical()}>"


def parse_runspec(text: str) -> RunSpec:
    """Parse ``kind:target[:key=value...]`` into a :class:`RunSpec`.

    Kinds: ``chaos`` (workloads ``stencil``/``samplesort``/``btmz``/
    ``fragile-reduce``; param ``seed``) and ``flows`` (programs
    ``spin``/``ring``/``pingpong``/``stencil``; params ``form`` plus the
    integers the program reads: ``ranks``, ``rounds``, ``cells``,
    ``steps``, ``seed``).  Every param but ``form`` is an integer; a
    repeated key, or one the target never reads, is refused.
    """
    parts = text.strip().split(":")
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise QueryError(
            f"bad runspec {text!r}: want kind:target[:key=value...]")
    kind, target = parts[0], parts[1]
    if kind == "chaos":
        from repro.chaos.workloads import WORKLOADS
        keys_of = dict.fromkeys(WORKLOADS, ("seed",))
    elif kind == "flows":
        keys_of = {t: ("form", *ints) for t, ints in _FLOWS_PARAMS.items()}
    else:
        raise QueryError(f"bad runspec {text!r}: unknown kind {kind!r} "
                         "(want chaos or flows)")
    if target not in keys_of:
        raise QueryError(f"bad runspec {text!r}: unknown {kind} target "
                         f"{target!r} (known: {', '.join(keys_of)})")
    keys = keys_of[target]
    params: Dict[str, Any] = {}
    for part in parts[2:]:
        key, eq, value = part.partition("=")
        if not eq or not key or not value:
            raise QueryError(
                f"bad runspec {text!r}: {part!r} is not key=value")
        if key not in keys:
            raise QueryError(f"bad runspec {text!r}: unknown param {key!r} "
                             f"for {kind}:{target} (known: "
                             f"{', '.join(sorted(keys))})")
        if key in params:
            raise QueryError(f"bad runspec {text!r}: param {key!r} given "
                             "more than once")
        if key == "form":
            if value not in _FORMS:
                raise QueryError(
                    f"bad runspec {text!r}: form must be one of "
                    f"{', '.join(_FORMS)} (hand-written event objects "
                    f"run on repro.charm, not under flows:)")
            params[key] = value
            continue
        try:
            params[key] = int(value)
        except ValueError:
            raise QueryError(f"bad runspec {text!r}: {key} needs an "
                             f"integer, got {value!r}") from None
    if params.get("cells", 1) < 1:
        raise QueryError(f"bad runspec {text!r}: a stencil strip needs at "
                         f"least one cell, got cells={params['cells']}")
    return RunSpec(kind, target, params)


def parse_timespec(text: str) -> Tuple[str, float]:
    """``"250000"`` → ("time", 250000.0); ``"@120"`` → ("events", 120).

    A negative event count and a non-finite time are refused.
    """
    text = text.strip()
    if text.startswith("@"):
        try:
            count = int(text[1:])
        except ValueError:
            count = -1
        if count < 0:
            raise QueryError(f"bad timespec {text!r}: @N needs a "
                             "non-negative integer event count")
        return ("events", count)
    try:
        time = float(text)
    except ValueError:
        time = math.nan
    if not math.isfinite(time):
        raise QueryError(f"bad timespec {text!r}: want a finite virtual "
                         "time in ns, or @N for an event count")
    return ("time", time)


# ---------------------------------------------------------------------------
# run builders (lazy imports: obs depends on the query engines)
# ---------------------------------------------------------------------------


def _chaos_run(spec: RunSpec):
    """The ``(workload, schedule)`` pair a ``chaos:`` runspec names."""
    from repro.chaos.faults import (STANDARD_RATES, FaultConfig,
                                    FaultSchedule)
    from repro.chaos.workloads import WORKLOADS
    return (WORKLOADS[spec.target](),
            FaultSchedule.seeded(spec.params.get("seed", 0),
                                 FaultConfig(**STANDARD_RATES)))


def _flows_program(spec: RunSpec):
    from repro.flows.programs import (pingpong_program, ring_program,
                                      spin_program)
    from repro.flows.stencil import stencil_program
    build = {"spin": spin_program, "ring": ring_program,
             "pingpong": pingpong_program,
             "stencil": stencil_program}[spec.target]
    params = {**_FLOWS_PARAMS[spec.target], **spec.params}
    params.pop("form", None)
    return build(**params)


def _build_flows_world(spec: RunSpec):
    """A populated, traced :class:`FlowWorld` for one flows runspec."""
    from repro.flows.runtime import FlowWorld
    from repro.kernel import KernelTracer
    program = _flows_program(spec)
    world = FlowWorld(program.ranks)
    tracer = KernelTracer().attach(world.kernel)
    world.spawn(spec.params.get("form", "thread"), program)
    return program, world, tracer


def run_recorded(spec: RunSpec) -> List[Dict[str, Any]]:
    """Re-execute ``spec`` to completion under a recording tracer.

    Returns the trace entries (the same JSONL schema ``dump`` writes).
    A chaos run goes through :func:`drive_ampi_chaos` with a
    :class:`RunObserver` attached — identical wiring to the chaos
    harness, so the trace matches what a chaos sweep would have
    recorded.  Flows runs go through a traced :class:`FlowWorld`.
    """
    if spec.kind == "chaos":
        from repro.chaos.harness import drive_ampi_chaos
        from repro.obs.collect import RunObserver
        holder: Dict[str, Any] = {}

        def observe(rt, ctx):
            holder["obs"] = RunObserver.for_ampi(rt).attach()

        drive_ampi_chaos(*_chaos_run(spec),
                         seed=spec.params.get("seed", 0),
                         observe=observe)
        obs = holder["obs"]
        obs.finalize()
        return obs.entries
    _program, world, tracer = _build_flows_world(spec)
    world.run()
    return tracer.entries


# ---------------------------------------------------------------------------
# bisect
# ---------------------------------------------------------------------------


def first_divergence(a: List[Dict[str, Any]], b: List[Dict[str, Any]],
                     ) -> Optional[Dict[str, Any]]:
    """First event index where two traces disagree, or ``None``.

    The result carries both records (``None`` for the side that ended
    early when one trace is a strict prefix of the other).
    """
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return {"index": i, "a": a[i], "b": b[i]}
    if len(a) != len(b):
        return {"index": n,
                "a": a[n] if len(a) > n else None,
                "b": b[n] if len(b) > n else None}
    return None


# ---------------------------------------------------------------------------
# at: replay to a point, dump state
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Normalize runtime values for canonical JSON: tuples become
    lists, numpy arrays/scalars become Python numbers, dict keys become
    strings, anything else falls back to ``repr``."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    return repr(value)


def _event_record(ev, with_message: bool = False) -> Dict[str, Any]:
    rec: Dict[str, Any] = {"t": ev.time, "seq": ev.seq,
                           "category": ev.category or "",
                           "flow": ev.flow}
    if with_message and ev.category and ev.category.startswith("net.") \
            and ev.args:
        msg = ev.args[0]
        for attr, key in (("src", "src"), ("dst", "dst"),
                          ("size_bytes", "bytes"), ("send_time", "sent"),
                          ("tag", "tag")):
            v = getattr(msg, attr, None)
            if v is not None:
                rec[key] = _jsonable(v)
    return rec


def _ampi_state(spec: RunSpec, rt, at: Dict[str, Any],
                stopped_by: Optional[str]) -> Dict[str, Any]:
    db = rt.db
    placement = {str(r): pe for r, pe in sorted(db.placement().items())}
    per_pe: Dict[str, Any] = {}
    for i, proc in enumerate(rt.cluster.processors):
        sched = rt.schedulers[i]
        ready = sorted(
            rank for rank in (
                rt._rank_of_tid.get(ev.args[0].tid)
                for ev in sched.kernel.live_events() if ev.args)
            if rank is not None)
        resident = sorted(int(r) for r, pe in db.placement().items()
                          if pe == i)
        per_pe[str(i)] = {
            "clock_ns": proc.now,
            "busy_ns": proc.busy_ns,
            "failed": bool(proc.failed),
            "ready_ranks": ready,
            "resident_ranks": resident,
        }
    in_flight = [_event_record(ev, with_message=True)
                 for ev in rt.cluster.queue.live_events()]
    waiting = {str(r): _jsonable(list(why[1:]))
               for r, why in sorted(rt.parked.items()) if why[0] == "recv"}
    state: Dict[str, Any] = {
        "kind": "chaos",
        "runspec": spec.canonical(),
        "at": at,
        "time_ns": rt.cluster.queue.current_time,
        "net_events_processed": rt.cluster.queue.events_processed,
        "num_ranks": rt.num_ranks,
        "finished_ranks": rt._finished,
        "rank_placement": placement,
        "per_pe": per_pe,
        "in_flight": in_flight,
        "waiting": waiting,
        "lb_database": {
            "epoch": db.epoch,
            "pe_loads": db.pe_loads(),
            "imbalance": db.imbalance(),
        },
    }
    if stopped_by is not None:
        state["stopped_by"] = stopped_by
    return state


def _flow_state(spec: RunSpec, program, world,
                at: Dict[str, Any]) -> Dict[str, Any]:
    # Deliberately no ``form`` anywhere in the dump: the thread and
    # compiled forms of one program must produce byte-identical state
    # (the same contract their traces are pinned to).
    kernel = world.kernel
    return {
        "kind": "flows",
        "program": program.name,
        "ranks": world.ranks,
        "at": at,
        "events_processed": kernel.events_processed,
        "dispatches": world.dispatches,
        "finished": world.finished,
        "barrier_arrivals": world._barrier_count,
        "mailboxes": {
            str(r): [{"src": src, "tag": _jsonable(tag),
                      "data": _jsonable(data)}
                     for src, tag, data in box]
            for r, box in enumerate(world._mailbox)},
        "waiting": {str(r): _jsonable(w and list(w))
                    for r, w in enumerate(world._waiting)},
        "pending_events": [_event_record(ev)
                           for ev in kernel.live_events()],
        "results": {str(r): _jsonable(v)
                    for r, v in sorted(world.results.items())},
    }


def replay_at(spec: RunSpec, timespec) -> Dict[str, Any]:
    """Replay ``spec`` up to ``timespec`` and dump reconstructed state.

    ``timespec`` is a string (see :func:`parse_timespec`) or an already
    parsed ``(kind, value)`` pair.  For a chaos run the bound applies to
    the cluster's network kernel — the replay stops with every event
    inside the bound delivered and local computation settled, so the
    dump's ``in_flight`` list is exactly the messages crossing the
    horizon.  For a flows run (all events at virtual time 0) an event
    count ``@N`` is the useful spigot.  The dump is deterministic:
    replaying the same spec to the same point yields identical bytes.
    """
    kind, value = (parse_timespec(timespec)
                   if isinstance(timespec, str) else timespec)
    if kind not in ("time", "events"):
        raise QueryError(f"bad timespec kind {kind!r}")
    at = {"kind": kind, "value": value}
    until = value if kind == "time" else None
    max_events = int(value) if kind == "events" else None
    if spec.kind == "flows":
        from repro.kernel import RunPolicy
        program, world, _tracer = _build_flows_world(spec)
        world.seed()
        world.kernel.run(RunPolicy(until=until, max_events=max_events))
        return _flow_state(spec, program, world, at)
    from repro.chaos.harness import build_ampi_chaos
    rt = build_ampi_chaos(*_chaos_run(spec))[0]
    stopped_by = None
    try:
        rt.run(until=until, max_net_events=max_events)
    except Exception as e:  # noqa: BLE001 - chaos runs legitimately fault
        stopped_by = f"{type(e).__name__}: {e}"
    return _ampi_state(spec, rt, at, stopped_by)
