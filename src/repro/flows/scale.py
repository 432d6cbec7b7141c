"""Million-flow scale cells: where each mechanism's curve actually ends.

Table 2 reports where processes, kernel threads and user-level threads
stop *creating*; this module adds the column the 2006 paper could not
measure — compiled continuations — by actually *running* a spin
workload at 10⁴..10⁶ flows per PE through the workload-execution
contract.  Both probes are ``(params, seed) -> dict`` executor workers
(:mod:`repro.exec` purity discipline), so ``tools/flows_scale.py`` runs
them as cached, crash-contained sweep cells: a refusal or a host OOM in
one cell cannot take down the sweep, and a re-run with the same params
is a cache hit.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["compiled_scale_cell", "mechanism_limit_cell"]


def compiled_scale_cell(params: Dict[str, Any],
                        seed: Optional[int]) -> Dict[str, Any]:
    """Run ``flows`` compiled-continuation flows to completion.

    ``params``: ``flows`` (count), ``rounds`` (yields per flow,
    default 2), ``platform`` (default ``linux_x86``), ``real_flows``
    (default True: create one real flow record per rank first, so the
    mechanism's creation path is exercised at full population).
    Returns counters plus host wall time and throughput.
    """
    import time

    from repro.flows import CompiledContinuationFlow
    from repro.flows.programs import spin_program
    from repro.sim import Processor, get_platform

    flows = int(params["flows"])
    rounds = int(params.get("rounds", 2))
    platform = params.get("platform", "linux_x86")
    mech = CompiledContinuationFlow(Processor(0, get_platform(platform)))
    program = spin_program(flows, rounds)
    # Host wall time is the cell's deliverable (the "can it actually
    # run" evidence); the workload itself is deterministic.
    t0 = time.perf_counter()
    run = mech.run_workload(program,
                            real_flows=bool(params.get("real_flows",
                                                       True)))
    wall_s = time.perf_counter() - t0
    return {
        "mechanism": run.mechanism,
        "platform": run.platform,
        "flows": flows,
        "rounds": rounds,
        "completed": len(run.results),
        "dispatches": run.dispatches,
        "kernel_events": run.kernel_events,
        "modeled_switch_ns": run.modeled_switch_ns,
        "wall_s": round(wall_s, 3),
        "events_per_s": round(run.kernel_events / wall_s) if wall_s > 0
        else None,
    }


def mechanism_limit_cell(params: Dict[str, Any],
                         seed: Optional[int]) -> Dict[str, Any]:
    """Probe one mechanism's creation limit (a Table 2 point).

    ``params``: ``mechanism`` (a :data:`repro.flows.MECHANISMS` key),
    ``platform``, ``cap``; a ``chunk`` key names the cell but changes
    nothing the probe does.  The probe creates up to ``cap`` flows as
    one run, which stops where the platform's OS/memory model refuses,
    exactly like :func:`repro.flows.limits.probe_limit` — because it is
    that probe, wrapped in a cell.
    """
    from repro.flows import MECHANISMS, probe_limit
    from repro.sim import Processor, get_platform

    cls = MECHANISMS[params["mechanism"]]
    proc = Processor(0, get_platform(params.get("platform", "linux_x86")))
    mech = cls(proc)
    probe = probe_limit(mech, int(params["cap"]))
    return {
        "mechanism": probe.mechanism,
        "platform": probe.platform,
        "count": probe.count,
        "hit_limit": probe.hit_limit,
        "limiting_factor": probe.limiting_factor,
        "display": probe.display(),
    }
