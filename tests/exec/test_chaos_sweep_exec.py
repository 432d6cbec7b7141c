"""The executor against the real chaos workload: byte-identical fan-out.

This is the tier-1 smoke test the ISSUE demands: a 2-worker mini-sweep
over the stencil chaos workload whose merged output must be *byte
identical* to the serial reference — completion order, worker count,
and process boundaries must leave no trace in the results.
"""

import json

import pytest

from repro.chaos import FaultConfig
from repro.exec import (Cell, LocalPool, SerialBackend, SweepExecutor,
                        SweepSpec, fault_config_params)

CONFIG = FaultConfig(drop_rate=0.02, delay_rate=0.1, reorder_rate=0.05,
                     migrate_abort_rate=0.1, migrate_bounce_rate=0.05,
                     ckpt_error_rate=0.03, ckpt_corrupt_rate=0.03,
                     crash_rate=0.15, evac_rate=0.1)
SEEDS = range(4)


def stencil_spec():
    rates = fault_config_params(CONFIG)
    return SweepSpec("stencil-mini", [
        Cell(experiment="chaos:stencil",
             runner="repro.exec.runners:run_chaos_cell",
             params={"workload": "stencil", "config": rates}, seed=s)
        for s in SEEDS])


def payload_bytes(results):
    """The part of a sweep that lands in output files, as bytes."""
    assert all(r.ok for r in results), [r.error for r in results]
    return json.dumps([r.value for r in results], indent=2).encode()


def test_two_worker_mini_sweep_is_byte_identical_to_serial():
    serial = SweepExecutor(stencil_spec(), backend=SerialBackend()).run()
    pooled = SweepExecutor(stencil_spec(), backend=LocalPool(jobs=2)).run()
    assert payload_bytes(serial) == payload_bytes(pooled)
    # Fingerprints prove the chaos runs themselves (not just the rows)
    # were identical, fault schedule and all.
    assert [r.value["fingerprint"] for r in serial] == \
        [r.value["fingerprint"] for r in pooled]


def test_merge_orders_results_by_cell_id_not_completion():
    spec = stencil_spec()
    results = SweepExecutor(spec, backend=LocalPool(jobs=2)).run()
    assert [r.cell_id for r in results] == \
        [c.cell_id for c in spec.merged_order()]
    assert [r.value["seed"] for r in results] == list(SEEDS)


def test_jobs_must_be_positive():
    from repro.errors import ReproError
    from repro.exec import backend_from_spec
    with pytest.raises(ReproError, match="jobs must be >= 1"):
        backend_from_spec("local:0")
    assert backend_from_spec("serial").jobs == 1
    assert backend_from_spec("local:3").jobs == 3
    # The suffix is checked even when an explicit jobs count wins over it.
    for spec, jobs, refusal in [("local:abc", 2, "must be an integer"),
                                ("local:", None, "must be an integer"),
                                ("local:0", 3, "jobs must be >= 1"),
                                ("serial:7", None, "one cell at a time"),
                                ("serial:0", None, "jobs must be >= 1")]:
        with pytest.raises(ReproError, match=refusal):
            backend_from_spec(spec, jobs=jobs)
    assert backend_from_spec("local:3", jobs=2).jobs == 2
    assert backend_from_spec("serial:1").jobs == 1
