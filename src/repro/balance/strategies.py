"""Load-balancing placement strategies.

Each strategy maps measured per-object loads, the current placement and
the window's other measurements — per-processor speeds and the object
traffic matrix, arguments like the loads — to a new placement; it keeps
no measurement between calls.  The names and behaviours follow the
classic Charm++ strategy suite:

``GreedyLB``
    Ignore current placement; assign objects heaviest-first to the
    least-loaded processor (LPT scheduling).  Best balance, most migration.
``RefineLB``
    Keep the current placement and move objects off overloaded processors
    until every processor is within a tolerance of the average.  Fewer
    migrations, slightly worse balance.
``RotateLB`` / ``RandomLB``
    Sanity baselines (shift every object by one processor / place
    uniformly at random).
``NullLB``
    Do nothing — the "without load balancing" arm of Figure 12.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Hashable, Optional, Sequence

from repro.kernel import MinHeap

__all__ = ["Strategy", "GreedyLB", "GreedyCommLB", "RefineLB", "RotateLB",
           "RandomLB", "NullLB"]

Placement = Dict[Hashable, int]
Loads = Dict[Hashable, float]
#: Relative speed per processor (``None``: all 1.0).
Speeds = Optional[Sequence[float]]
#: Bytes sent per directed ``(src, dst)`` object pair (``None``: none).
Comm = Optional[Dict[tuple, int]]


class Strategy(ABC):
    """Interface for placement strategies: every measurement one reads is
    an argument of :meth:`map_objects`."""

    name: str = "?"

    @abstractmethod
    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        """Return the new placement (must cover exactly ``loads``'s keys)."""


class NullLB(Strategy):
    """Leave every object where it is."""

    name = "NullLB"

    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        return dict(current)


class GreedyLB(Strategy):
    """Heaviest-first onto the earliest-finishing processor (LPT).

    Speed-aware: with per-processor ``speeds``, a processor's finish time
    is its assigned work divided by its speed, so slow (externally
    loaded) nodes receive proportionally less — paper reference [10]'s
    workstation-cluster adaptation.
    """

    name = "GreedyLB"

    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        speeds = speeds or [1.0] * npes
        heap = MinHeap((0.0, pe) for pe in range(npes))
        out: Placement = {}
        # Ties broken deterministically by object key order.
        for obj in sorted(loads, key=lambda o: (-loads[o], str(o))):
            finish, pe = heap.peek()
            out[obj] = pe
            heap.replace((finish + loads[obj] / speeds[pe], pe))
        return out


class RefineLB(Strategy):
    """Move objects off overloaded processors until within tolerance.

    ``tolerance`` is the allowed max/avg overshoot (1.05 = within 5%).
    Speed-aware like :class:`GreedyLB`: all comparisons use *finish time*
    (assigned work divided by the processor's speed), so a half-speed
    workstation counts as overloaded with half the work.
    """

    name = "RefineLB"

    def __init__(self, tolerance: float = 1.05):
        self.tolerance = tolerance

    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        speeds = speeds or [1.0] * npes
        out = dict(current)
        pe_load = [0.0] * npes
        pe_objs: Dict[int, list] = {pe: [] for pe in range(npes)}
        for obj, load in loads.items():
            pe = out[obj]
            pe_load[pe] += load
            pe_objs[pe].append(obj)
        total = sum(pe_load)
        if total == 0:
            return out

        def finish(p):
            return pe_load[p] / speeds[p]

        avg_finish = total / sum(speeds)
        threshold = avg_finish * self.tolerance
        # Repeatedly take the latest-finishing processor above threshold
        # and move its best-fitting object to the earliest-finishing one.
        for _ in range(4 * len(loads)):          # bounded work
            heavy = max(range(npes), key=finish)
            if finish(heavy) <= threshold:
                break
            light = min(range(npes), key=finish)
            overshoot = (finish(heavy) - avg_finish) * speeds[heavy]
            candidates = sorted(pe_objs[heavy], key=lambda o: loads[o])
            if not candidates:
                break
            # Prefer the largest object that still fits in the overshoot;
            # otherwise the smallest one (to make progress).
            fitting = [o for o in candidates if loads[o] <= overshoot]
            move = fitting[-1] if fitting else candidates[0]
            if ((pe_load[light] + loads[move]) / speeds[light]
                    >= finish(heavy)):
                break                              # no profitable move left
            pe_objs[heavy].remove(move)
            pe_objs[light].append(move)
            pe_load[heavy] -= loads[move]
            pe_load[light] += loads[move]
            out[move] = light
        return out


class RotateLB(Strategy):
    """Shift every object to the next processor (stress-test baseline)."""

    name = "RotateLB"

    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        return {obj: (current.get(obj, 0) + 1) % npes for obj in loads}


class RandomLB(Strategy):
    """Uniform random placement with a fixed seed (reproducible).

    The draw is derived from ``(seed, invocation index)``, not the seed
    alone: re-seeding from scratch on every call would hand back the
    identical placement at every rebalance after the first, so repeat
    rebalances would migrate nothing.  A fresh strategy instance replays
    the same sequence of placements, keeping whole runs reproducible.
    """

    name = "RandomLB"

    def __init__(self, seed: int = 12345):
        self.seed = seed
        self._invocation = 0

    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        rng = random.Random(f"{self.seed}:{self._invocation}")
        self._invocation += 1
        return {obj: rng.randrange(npes)
                for obj in sorted(loads, key=str)}


class GreedyCommLB(Strategy):
    """Communication-aware greedy placement.

    Like :class:`GreedyLB`, objects are placed heaviest-first onto the
    least-cost processor — but the cost of a candidate processor mixes its
    compute load with a *communication penalty*: bytes the object exchanges
    with objects placed on **other** processors (scaled by ``byte_cost``,
    ns of network time per byte).  Heavily-communicating objects therefore
    pull toward each other, trading a little compute balance for locality —
    the trade-off the Charm++ comm-aware strategies make.

    The traffic matrix is ``comm``, which the LB manager reads from
    :meth:`repro.balance.instrument.LBDatabase.comm_graph`; with none,
    only compute load decides.
    """

    name = "GreedyCommLB"

    def __init__(self, byte_cost: float = 4.0):
        self.byte_cost = byte_cost

    def map_objects(self, loads: Loads, current: Placement, npes: int, *,
                    speeds: Speeds = None, comm: Comm = None) -> Placement:
        comm = comm or {}

        def traffic(a: Hashable, b: Hashable) -> int:
            return comm.get((a, b), 0) + comm.get((b, a), 0)

        pe_load = [0.0] * npes
        placed: Dict[int, list] = {pe: [] for pe in range(npes)}
        out: Placement = {}
        order = sorted(loads, key=lambda o: (-loads[o], str(o)))
        for obj in order:
            best_pe, best_cost = 0, None
            for pe in range(npes):
                # Compute cost: the processor's load after adding obj.
                cost = pe_load[pe] + loads[obj]
                # Communication cost: traffic to already-placed objects
                # that live elsewhere.
                remote = sum(traffic(obj, other)
                             for p, objs in placed.items() if p != pe
                             for other in objs)
                local_saving = sum(traffic(obj, other)
                                   for other in placed[pe])
                cost += self.byte_cost * (remote - local_saving)
                if best_cost is None or cost < best_cost:
                    best_pe, best_cost = pe, cost
            out[obj] = best_pe
            pe_load[best_pe] += loads[obj]
            placed[best_pe].append(obj)
        return out
