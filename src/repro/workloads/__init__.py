"""Workloads used by the paper's application-level experiments.

* :mod:`repro.workloads.stencil` — the Figure 1 five-point stencil with
  one-dimensional decomposition and ghost-strip exchange, with real NumPy
  numerics (Jacobi iteration), runnable over both the SDAG runtime and AMPI.
* :mod:`repro.workloads.stencil_chare` — the :mod:`repro.flows.stencil`
  program hand-inverted into a PUP-migratable chare (not re-exported).
* :mod:`repro.workloads.md` — a cube-decomposition molecular-dynamics-like
  workload (the BigSim target application of Figure 11 / Section 4.4).
* :mod:`repro.workloads.btmz` — a NAS BT-MZ-like multi-zone workload
  generator with the documented uneven zone-size distribution, driving the
  Figure 12 load-balancing experiment.
"""

from repro.workloads.stencil import StencilConfig, ampi_stencil_main, run_ampi_stencil
from repro.workloads.md import MDConfig, MDWorkload
from repro.workloads.btmz import (BTMZ_CLASSES, BTMZConfig, Zone, make_zones,
                                  run_btmz, zone_rank_assignment)

__all__ = [
    "StencilConfig",
    "ampi_stencil_main",
    "run_ampi_stencil",
    "MDConfig",
    "MDWorkload",
    "BTMZ_CLASSES",
    "BTMZConfig",
    "Zone",
    "make_zones",
    "zone_rank_assignment",
    "run_btmz",
]
