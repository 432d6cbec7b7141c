"""Five-point stencil with 1-D decomposition and ghost exchange (Figure 1).

The paper's SDAG example program: each worker owns a strip of a 2-D grid,
sends its boundary rows to both neighbors, waits for both incoming strips
in any order, then relaxes its interior.  Here the numerics are real —
a Jacobi sweep over NumPy arrays — so correctness is checkable against a
sequential reference, and the same computation is provided in AMPI form
(blocking receives on migratable threads) to contrast the two styles the
paper compares in Section 2.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.ampi import AmpiRuntime
from repro.balance.strategies import NullLB, Strategy

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StencilConfig", "jacobi_reference", "ampi_stencil_main",
           "run_ampi_stencil"]


@dataclass(frozen=True)
class StencilConfig:
    """Problem definition for the stencil workloads."""

    rows: int = 64
    cols: int = 32
    iterations: int = 10
    #: Modeled compute cost per grid point per sweep (ns).
    ns_per_point: float = 4.0


def jacobi_reference(grid: np.ndarray, iterations: int) -> np.ndarray:
    """Sequential reference: ``iterations`` Jacobi sweeps, Dirichlet edges."""
    import numpy as np
    g = grid.astype(np.float64).copy()
    for _ in range(iterations):
        nxt = g.copy()
        nxt[1:-1, 1:-1] = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                                  + g[1:-1, :-2] + g[1:-1, 2:])
        g = nxt
    return g


def initial_grid(cfg: StencilConfig) -> np.ndarray:
    """Deterministic initial condition: hot top edge, cold elsewhere."""
    import numpy as np
    g = np.zeros((cfg.rows, cfg.cols))
    g[0, :] = 100.0
    g[-1, :] = -25.0
    return g


def ampi_stencil_main(cfg: StencilConfig, results: Dict[int, np.ndarray],
                      checkpoint_period: int = 0):
    """Build the AMPI rank program for the stencil.

    Each rank owns a contiguous strip of rows.  One iteration is: send
    boundary rows up and down, receive both ghost strips (blocking recv —
    the thread suspends, which is exactly the pattern that forces
    thread-like mechanisms for "traditional" MPI codes, Section 2.4), then
    sweep the interior with NumPy.

    ``checkpoint_period > 0`` adds a coordinated checkpoint every that
    many iterations — the hook the chaos harness uses to exercise
    crash/recovery mid-computation.
    """

    def main(mpi):
        import numpy as np
        n = mpi.size
        rows_per = cfg.rows // n
        lo = mpi.rank * rows_per
        hi = cfg.rows if mpi.rank == n - 1 else lo + rows_per
        full = initial_grid(cfg)
        strip = full[lo:hi].copy()
        for it in range(cfg.iterations):
            if mpi.rank > 0:
                mpi.send(mpi.rank - 1, strip[0].copy(), tag=("dn", it))
            if mpi.rank < n - 1:
                mpi.send(mpi.rank + 1, strip[-1].copy(), tag=("up", it))
            above = (yield from mpi.recv(source=mpi.rank - 1, tag=("up", it))) \
                if mpi.rank > 0 else None
            below = (yield from mpi.recv(source=mpi.rank + 1, tag=("dn", it))) \
                if mpi.rank < n - 1 else None
            ext = np.vstack([r for r in (
                above[None, :] if above is not None else None,
                strip,
                below[None, :] if below is not None else None)
                if r is not None])
            off = 1 if above is not None else 0
            nxt = strip.copy()
            # Relax every interior point of the global grid that this
            # strip owns.
            for i in range(strip.shape[0]):
                gi = lo + i
                if gi == 0 or gi == cfg.rows - 1:
                    continue
                ei = i + off
                nxt[i, 1:-1] = 0.25 * (ext[ei - 1, 1:-1] + ext[ei + 1, 1:-1]
                                       + ext[ei, :-2] + ext[ei, 2:])
            strip = nxt
            mpi.charge(cfg.ns_per_point * strip.size)
            if checkpoint_period and (it + 1) % checkpoint_period == 0:
                yield from mpi.checkpoint()
        results[mpi.rank] = strip

    return main


def run_ampi_stencil(cfg: StencilConfig, num_procs: int, num_ranks: int,
                     strategy: Strategy | None = None,
                     checkpoint_period: int = 0):
    """Run the AMPI stencil; returns (runtime, assembled final grid)."""
    import numpy as np
    results: Dict[int, np.ndarray] = {}
    rt = AmpiRuntime(num_procs, num_ranks,
                     ampi_stencil_main(cfg, results, checkpoint_period),
                     strategy=strategy or NullLB(),
                     slot_bytes=256 * 1024, stack_bytes=8 * 1024)
    rt.run()
    strips: List[np.ndarray] = [results[r] for r in range(num_ranks)]
    return rt, np.vstack(strips)
