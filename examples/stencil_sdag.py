#!/usr/bin/env python3
"""The paper's Figure 1 program: a 5-point stencil in Structured Dagger.

Each chare owns a strip of a 2-D grid.  One iteration of its life cycle:

    atomic  { send my boundary strips to both neighbors }
    overlap { when strip_from_left(...)   -> copy it
              when strip_from_right(...)  -> copy it }      # any order!
    atomic  { relax the interior }

The computation is a real Jacobi iteration over NumPy arrays, and the
result is checked against the sequential reference — and then the same
computation is run again through AMPI threads (the blocking-receive style)
to show both flow-of-control styles the paper compares.

Run:  python examples/stencil_sdag.py
"""

import numpy as np

from repro.charm import Chare, CharmRuntime, Overlap, When
from repro.sim import Cluster
from repro.workloads.stencil import (StencilConfig, initial_grid,
                                     jacobi_reference, run_ampi_stencil)

CFG = StencilConfig(rows=48, cols=24, iterations=8)
WORKERS = 6
collected = {}


class StencilStrip(Chare):
    """One strip of the grid as an event-driven object."""

    def lifecycle(self):
        n = self.thisProxy.n
        rows_per = CFG.rows // n
        lo = self.thisIndex * rows_per
        hi = CFG.rows if self.thisIndex == n - 1 else lo + rows_per
        strip = initial_grid(CFG)[lo:hi].copy()
        up, down = self.thisIndex - 1, self.thisIndex + 1

        for it in range(CFG.iterations):
            # atomic { sendStripToLeftAndRight(); }
            if up >= 0:
                self.thisProxy[up].send("strip_from_right", strip[0],
                                        size_bytes=strip[0].nbytes)
            if down < n:
                self.thisProxy[down].send("strip_from_left", strip[-1],
                                          size_bytes=strip[-1].nbytes)
            # overlap { when strip_from_left ... when strip_from_right ... }
            if up >= 0 and down < n:
                above, below = yield Overlap(When("strip_from_left"),
                                             When("strip_from_right"))
            elif up >= 0:
                above, below = (yield When("strip_from_left")), None
            else:
                above, below = None, (yield When("strip_from_right"))
            # atomic { doWork(); }
            parts = [p for p in (above[None, :] if above is not None else None,
                                 strip,
                                 below[None, :] if below is not None else None)
                     if p is not None]
            ext = np.vstack(parts)
            off = 1 if above is not None else 0
            nxt = strip.copy()
            for i in range(strip.shape[0]):
                gi = lo + i
                if gi in (0, CFG.rows - 1):
                    continue
                e = i + off
                nxt[i, 1:-1] = 0.25 * (ext[e - 1, 1:-1] + ext[e + 1, 1:-1]
                                       + ext[e, :-2] + ext[e, 2:])
            strip = nxt
            self.charge(CFG.ns_per_point * strip.size)
        # Teaching shortcut: the example harvests results into a host-side
        # dict to compare against the sequential reference; the chare never
        # migrates after writing it.
        collected[self.thisIndex] = strip  # migralint: disable=MIG002


def main():
    print(f"SDAG stencil: {CFG.rows}x{CFG.cols} grid, {WORKERS} chares, "
          f"{CFG.iterations} iterations")
    cluster = Cluster(3)
    runtime = CharmRuntime(cluster)
    array = runtime.create_array(StencilStrip, WORKERS)
    array.broadcast("lifecycle")
    cluster.run()

    result = np.vstack([collected[i] for i in range(WORKERS)])
    expected = jacobi_reference(initial_grid(CFG), CFG.iterations)
    err = np.abs(result - expected).max()
    print(f"  SDAG result vs sequential reference: max |err| = {err:.2e}")
    assert err < 1e-12
    print(f"  entry methods invoked: {runtime.entries_invoked}, "
          f"virtual makespan: {cluster.makespan / 1e6:.3f} ms")

    print("\nSame computation as AMPI threads (blocking receives):")
    rt, ampi_result = run_ampi_stencil(CFG, num_procs=3, num_ranks=WORKERS)
    err = np.abs(ampi_result - expected).max()
    print(f"  AMPI result vs reference: max |err| = {err:.2e}")
    assert err < 1e-12
    print(f"  virtual makespan: {rt.makespan_ns / 1e6:.3f} ms "
          f"(threads suspend inside recv instead of returning to a "
          f"scheduler — no code inversion needed)")


if __name__ == "__main__":
    main()
