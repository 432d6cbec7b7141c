"""Worker entry points: how a cell's plain params become a real run.

Every function here follows the worker purity discipline that
``tests/test_layering.py`` pins over this package: an entry point takes
``(params, seed)`` **plain data**, constructs whatever runtime it needs
through public constructors *inside the call*, and returns a JSON-able
payload.  No live kernel, scheduler, or runtime object ever crosses the
process boundary — a worker's world is rebuilt from names and numbers,
which is precisely why a cell computes the same bytes in any process.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

__all__ = ["chaos_result_row", "fault_config_params", "run_chaos_cell"]


def fault_config_params(config) -> Dict[str, Any]:
    """A ``FaultConfig`` as the plain dict a chaos cell carries."""
    return dataclasses.asdict(config)


def chaos_result_row(result) -> Dict[str, Any]:
    """Reduce a :class:`~repro.chaos.ChaosResult` to its JSON row.

    This is the exact row shape ``results/chaos_sweep.json`` records;
    keeping it here lets the sweep tool, the golden-seed regeneration,
    and ad-hoc sweeps share one definition.
    """
    return {
        "workload": result.workload,
        "seed": result.seed,
        "outcome": result.outcome,
        "detail": result.detail,
        "faults": len(result.schedule),
        "schedule": [repr(ev) for ev in result.schedule],
        "fingerprint": result.fingerprint(),
        "makespan_ns": result.makespan_ns,
        "counters": {k: v for k, v in result.counters.items() if v},
    }


def run_chaos_cell(params: Dict[str, Any],
                   seed: Optional[int]) -> Dict[str, Any]:
    """One seeded chaos run: ``{"workload": name, "config": rates}``."""
    from repro.chaos import WORKLOADS, ChaosRunner, FaultConfig

    config = FaultConfig(**params.get("config", {}))
    runner = ChaosRunner(WORKLOADS[params["workload"]](), config)
    return chaos_result_row(runner.run_seed(seed))
