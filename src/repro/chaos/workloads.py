"""Self-checking workloads for the chaos harness.

Each workload builds a fresh, fully deterministic AMPI run with built-in
checkpoint barriers (the crash/evacuation injection points) and returns a
checker that judges the final answer against an independent reference —
so a run that limps to completion with wrong data is a *violation*, not a
pass.

:class:`FragileReduceWorkload` is deliberately broken: it assumes
at-most-once message delivery, so a single duplicated contribution makes
it produce a wrong sum.  It exists as a known-failing target for shrinker
and repro-script tests — it is not part of the "runtime must survive"
sweep.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ampi import AmpiRuntime
from repro.balance.strategies import GreedyLB, NullLB
from repro.workloads.btmz import BTMZConfig, make_btmz_main
from repro.workloads.stencil import (StencilConfig, ampi_stencil_main,
                                     initial_grid, jacobi_reference)

__all__ = ["ChaosWorkload", "StencilChaosWorkload",
           "SampleSortChaosWorkload", "BTMZChaosWorkload",
           "FragileReduceWorkload", "STANDARD_WORKLOADS", "WORKLOADS"]


class ChaosWorkload:
    """A named, repeatable AMPI run with a correctness oracle.

    Subclasses implement :meth:`build`, returning a fresh
    ``(AmpiRuntime, check_fn)`` pair; ``check_fn(rt)`` returns whether
    the completed run produced the right answer.  ``build`` must be
    deterministic — the chaos runner's replay and shrink guarantees rest
    on every build being the same run.
    """

    name = "?"

    def build(self):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class StencilChaosWorkload(ChaosWorkload):
    """The Figure 1 Jacobi stencil, checked against the serial reference."""

    name = "stencil"

    def __init__(self, rows: int = 16, cols: int = 8, iterations: int = 6,
                 npes: int = 3, nranks: int = 4,
                 checkpoint_period: int = 2):
        self.cfg = StencilConfig(rows=rows, cols=cols, iterations=iterations)
        self.npes = npes
        self.nranks = nranks
        self.checkpoint_period = checkpoint_period

    def build(self):
        results: Dict[int, np.ndarray] = {}
        rt = AmpiRuntime(self.npes, self.nranks,
                         ampi_stencil_main(self.cfg, results,
                                           self.checkpoint_period),
                         strategy=NullLB(),
                         slot_bytes=256 * 1024, stack_bytes=8 * 1024)
        expected = jacobi_reference(initial_grid(self.cfg),
                                    self.cfg.iterations)
        nranks = self.nranks

        def check(rt) -> bool:
            if len(results) != nranks:
                return False
            grid = np.vstack([results[r] for r in range(nranks)])
            return bool(np.allclose(grid, expected))

        return rt, check


class SampleSortChaosWorkload(ChaosWorkload):
    """A small parallel sample sort with migration and checkpoints.

    Exercises collectives (allgather / bcast / alltoall), an
    ``MPI_Migrate`` rebalance, and a checkpoint barrier, all on real
    data; the oracle is NumPy's own sort of the same input.
    """

    name = "samplesort"

    def __init__(self, n: int = 4096, nranks: int = 6, npes: int = 3,
                 input_seed: int = 2006):
        self.n = n
        self.nranks = nranks
        self.npes = npes
        self.input_seed = input_seed

    def build(self):
        rng = np.random.default_rng(self.input_seed)
        data = rng.integers(0, 10_000, size=self.n, dtype=np.int64)
        chunks = np.array_split(data, self.nranks)
        expected = np.sort(data)
        results: Dict[int, np.ndarray] = {}
        nranks = self.nranks

        def main(mpi):
            local = np.sort(chunks[mpi.rank])
            pos = np.linspace(0, len(local) - 1,
                              mpi.size + 2).astype(int)[1:-1]
            all_samples = yield from mpi.allgather(local[pos].tolist())
            yield from mpi.checkpoint()
            splitters = None
            if mpi.rank == 0:
                flat = np.sort(np.concatenate(
                    [np.asarray(s) for s in all_samples]))
                idx = np.linspace(0, len(flat) - 1,
                                  mpi.size + 1).astype(int)
                splitters = flat[idx][1:-1]
            splitters = yield from mpi.bcast(splitters, root=0)
            buckets = np.split(local, np.searchsorted(local, splitters))
            incoming = yield from mpi.alltoall(buckets)
            mine = np.sort(np.concatenate(incoming))
            mpi.charge(25.0 * len(mine))
            yield from mpi.migrate()
            yield from mpi.checkpoint()
            mpi.charge(25.0 * len(mine))
            results[mpi.rank] = mine

        rt = AmpiRuntime(self.npes, self.nranks, main, strategy=GreedyLB(),
                         slot_bytes=256 * 1024, stack_bytes=8 * 1024)

        def check(rt) -> bool:
            if len(results) != nranks:
                return False
            merged = np.concatenate([results[r] for r in range(nranks)])
            return bool(np.array_equal(merged, expected))

        return rt, check


class BTMZChaosWorkload(ChaosWorkload):
    """BT-MZ class S with rebalancing and periodic checkpoints.

    BT-MZ has no numeric output to check; the oracle is completion —
    every rank ran all iterations through the load-balance and
    checkpoint barriers despite the faults.
    """

    name = "btmz"

    def __init__(self, class_name: str = "S", nprocs: int = 4,
                 npes: int = 2, iterations: int = 4,
                 checkpoint_period: int = 2):
        self.cfg = BTMZConfig(class_name, nprocs, npes,
                              iterations=iterations, lb_period=2)
        self.checkpoint_period = checkpoint_period

    def build(self):
        rt = AmpiRuntime(self.cfg.npes, self.cfg.nprocs,
                         make_btmz_main(self.cfg, self.checkpoint_period),
                         strategy=GreedyLB(),
                         slot_bytes=256 * 1024, stack_bytes=8 * 1024)

        def check(rt) -> bool:
            return rt.done

        return rt, check


class FragileReduceWorkload(ChaosWorkload):
    """A reduction that wrongly assumes at-most-once delivery.

    Rank 0 (pinned alone on pe0, so every contribution crosses the
    faultable network) sums exactly ``size - 1`` received contributions.
    Duplicate one contribution and the loop terminates early, counting
    the duplicate and dropping a real value — a silently wrong sum.  The
    canonical deterministic target for shrinker and repro-script tests.
    """

    name = "fragile-reduce"

    def __init__(self, nranks: int = 4, npes: int = 2):
        self.nranks = nranks
        self.npes = npes

    def expected_total(self) -> int:
        """The sum a fault-free run produces."""
        return sum((r + 1) * 10 for r in range(1, self.nranks))

    def build(self):
        results: Dict[int, int] = {}
        expected = self.expected_total()

        def main(mpi):
            if mpi.rank == 0:
                total = 0
                for _ in range(mpi.size - 1):
                    v = yield from mpi.recv(tag="contrib")
                    total += v
                results[0] = total
            else:
                mpi.send(0, (mpi.rank + 1) * 10, tag="contrib")
                yield from mpi.yield_()

        rt = AmpiRuntime(self.npes, self.nranks, main, strategy=NullLB(),
                         placement=lambda rank: 0 if rank == 0 else 1,
                         slot_bytes=256 * 1024, stack_bytes=8 * 1024)

        def check(rt) -> bool:
            return results.get(0) == expected

        return rt, check


#: The workloads every chaos sweep runs (the fragile target is excluded
#: on purpose: it is a known-broken protocol used to test the tools).
STANDARD_WORKLOADS = (StencilChaosWorkload, SampleSortChaosWorkload,
                      BTMZChaosWorkload)

#: Every chaos workload by name — the one table cells, runspecs and the
#: sweep tool resolve names through (standard three first).
WORKLOADS = {cls.name: cls for cls in
             STANDARD_WORKLOADS + (FragileReduceWorkload,)}
