"""The shipped migralint rules (importing this package registers them).

Each module defines one rule, grounded in a specific mechanism of the
paper: PUP traversal (MIG001), swap-global privatization (MIG002), the
migration state contract (MIG003), SDAG coordination discipline (MIG004),
isomalloc address validity (MIG005), and the thread→event compilation
disciplines built on :mod:`repro.analysis.flow` — lost delegation
(FLW001), unsplittable constructs (FLW002), and dead suspend surface
(FLW003).
"""

from repro.analysis.rules import (  # noqa: F401
    flw001_delegation,
    flw002_unsplittable,
    flw003_dead_surface,
    mig001_pup,
    mig002_globals,
    mig003_state,
    mig004_sdag,
    mig005_isomalloc,
)
