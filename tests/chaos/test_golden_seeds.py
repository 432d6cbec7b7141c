"""Chaos determinism regression: golden fingerprints for fixed seeds.

The kernel refactor rebased the fault injector from bespoke runtime
hooks onto the kernel's named channels.  The FaultSchedule contract —
``(site, seq)`` decision points whose ``seq`` advances on *every*
consultation — means any change in consultation order or count shifts
every subsequent fault and changes the run wholesale.  These golden
fingerprints (captured at the refactor, byte-identical to the
pre-kernel injector) pin that down: a diff here means the injector's
decision points moved, which silently invalidates every recorded
chaos schedule and repro script in the wild.

If a *deliberate* semantic change lands (a new faultable site, a
different consultation order), re-capture through the parallel sweep
executor with::

    PYTHONPATH=src python -c \\
        "from tests.chaos.test_golden_seeds import regenerate; regenerate()"

and say so loudly in the commit message.  ``regenerate`` fans the
workload x seed grid out over worker processes; the executor's merge
orders fingerprints by cell id, so the captured table is identical
however many workers ran it.
"""

import pytest

from repro.chaos import ChaosRunner, FaultConfig, STANDARD_WORKLOADS

#: The sweep configuration the goldens were captured under — the
#: chaos_sweep tool's default rates, every fault class enabled.
CONFIG = FaultConfig(
    drop_rate=0.01,
    delay_rate=0.08,
    reorder_rate=0.05,
    migrate_abort_rate=0.1,
    migrate_bounce_rate=0.05,
    ckpt_error_rate=0.02,
    ckpt_corrupt_rate=0.02,
    crash_rate=0.15,
    evac_rate=0.1,
)

SEEDS = range(5)

#: workload-name -> seed -> full-run fingerprint (trace ∥ state hash).
GOLDEN = {
    "stencil": {
        0: "7ea07b808e726b79bb6e727165d7691bb211f3d2df993e6428bfee283fca353b",
        1: "5206cef14596c05c9cfb33456e2cd80f881ada3b3fdc9901d9f9d8129b355ab1",
        2: "5fd59d9332f23195a73e09ef9fdcd9a03df307f7a862404e8633de85e2c3e178",
        3: "155909e5ea2618b214d6810029c70711c221c381b2ed2827bee2ff7fe758ae31",
        4: "8ed406474041864671678648f8ca6370548e7ff6ef55ae637edc6379016ea868",
    },
    "samplesort": {
        0: "6c781ecd6491021a9612eb045f17f59fd0e3177885b226cc23668677c8aa9f51",
        1: "4484c1b3f56c01a6002effe8cb95f2f8dcf1cc1db1076e27cd1ca31317d8e31a",
        2: "c76365e0f7af699f99b995c1b4d9bdae1d4f4a9e7488a7948f3ffb8c15d7e586",
        3: "0749dc30f110869da65b1e851248c6ae90cfc53b5a50eb59ba4954cca1ef5df3",
        4: "4ee29025fec4831893149a06e68a3a0f7c79793d97abce0e7a8cf7e7e3851e08",
    },
    "btmz": {
        0: "08ad0baa8fd19c21c46cd7f9a8049d73cb38ee7f59582dc9d6da2d7648461b9a",
        1: "23c6032e318e8581547b1abdfd7f3d03907ed6f723a0c3249153676641aeffea",
        2: "4b557ec84607beeade0b851ccc5e5590da7aae68b0a3c045841639eee50630ec",
        3: "fa102158d780e3163cce80a7cddd12f7b8cac8c02e0e52d4669a65f24853cd17",
        4: "a06470fad66463c5b4de47c7a071288f54bdf63ac5c4dc035060d01df5c17125",
    },
}


def regenerate(jobs: int = 4) -> dict:
    """Re-capture GOLDEN via :mod:`repro.exec`; prints and returns it.

    Uses the parallel executor (``jobs`` workers) — byte-identical to a
    serial sweep by the executor's merge contract, so the fingerprints
    it prints are exactly what :func:`test_sweep_matches_golden_fingerprints`
    will check.
    """
    from repro.exec import (Cell, SweepExecutor, SweepSpec,
                            backend_from_spec, fault_config_params)

    rates = fault_config_params(CONFIG)
    cells = [Cell(experiment=f"chaos:{wl.name}",
                  runner="repro.exec.runners:run_chaos_cell",
                  params={"workload": wl.name, "config": rates}, seed=s)
             for wl in STANDARD_WORKLOADS for s in SEEDS]
    results = SweepExecutor(SweepSpec("golden_seeds", cells),
                            backend=backend_from_spec(
                                f"local:{jobs}")).run()
    table: dict = {}
    for res in results:
        if not res.ok:
            raise AssertionError(f"golden cell {res.cell_id} failed:\n"
                                 f"{res.error}")
        row = res.value
        table.setdefault(row["workload"], {})[row["seed"]] = \
            row["fingerprint"]
        print(row["workload"], row["seed"], row["fingerprint"])
    return table


def test_golden_covers_every_standard_workload():
    assert set(GOLDEN) == {wl.name for wl in STANDARD_WORKLOADS}


@pytest.mark.parametrize("wl_cls", STANDARD_WORKLOADS,
                         ids=[wl.name for wl in STANDARD_WORKLOADS])
def test_sweep_matches_golden_fingerprints(wl_cls):
    wl = wl_cls()
    results = ChaosRunner(wl, CONFIG).sweep(SEEDS)
    got = {res.seed: res.fingerprint() for res in results}
    assert got == GOLDEN[wl.name]
