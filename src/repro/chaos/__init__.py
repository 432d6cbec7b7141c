"""Deterministic fault injection and invariant checking (chaos testing).

The migration, checkpoint, and load-balancing machinery this library
reproduces exists *because* machines fail — so the test suite must be
able to make them fail, on purpose, reproducibly.  This package injects
processor crashes, message drop/delay/duplication/reorder, migration
aborts, and checkpoint-disk errors into unmodified :mod:`repro.sim` /
:mod:`repro.ampi` runs, checks a registry of runtime invariants at every
injection point, and reduces each run to a replayable, shrinkable
``(seed, schedule)`` pair:

* :mod:`~repro.chaos.faults` — :data:`FAULTS` (the fault model) and
  :class:`FaultSchedule`: seeded or scripted decisions at stable
  ``(site, seq)`` points;
* :mod:`~repro.chaos.injector` — :class:`FaultInjector`: subscribers on
  the runtimes' fault channels;
* :mod:`~repro.chaos.invariants` — the :func:`invariant` registry and
  :func:`check_invariants`;
* :mod:`~repro.chaos.harness` — wiring + outcome classification
  (:class:`ChaosResult`);
* :mod:`~repro.chaos.runner` — :class:`ChaosRunner`: sweep, replay,
  ddmin shrink, repro-script emission;
* :mod:`~repro.chaos.workloads` — self-checking stencil / samplesort /
  BT-MZ runs (and a deliberately fragile reduction for tool tests).
"""

from repro.chaos.faults import (FAULTS, SITES, STANDARD_RATES, FaultConfig,
                                FaultEvent, FaultSchedule)
from repro.chaos.harness import (ChaosResult, build_ampi_chaos,
                                 drive_ampi_chaos, wire_ampi_faults)
from repro.chaos.injector import FaultInjector
from repro.chaos.invariants import (INVARIANTS, ChaosContext,
                                    check_invariants, invariant)
from repro.chaos.runner import ChaosRunner
from repro.chaos.workloads import (STANDARD_WORKLOADS, WORKLOADS,
                                   BTMZChaosWorkload,
                                   ChaosWorkload, FragileReduceWorkload,
                                   SampleSortChaosWorkload,
                                   StencilChaosWorkload)

__all__ = [
    "FAULTS", "SITES", "STANDARD_RATES", "FaultEvent", "FaultConfig",
    "FaultSchedule", "FaultInjector",
    "ChaosContext", "INVARIANTS", "invariant", "check_invariants",
    "ChaosResult", "wire_ampi_faults", "build_ampi_chaos",
    "drive_ampi_chaos",
    "ChaosRunner",
    "ChaosWorkload", "StencilChaosWorkload", "SampleSortChaosWorkload",
    "BTMZChaosWorkload", "FragileReduceWorkload", "STANDARD_WORKLOADS",
    "WORKLOADS",
]
