"""The LB manager: turn a strategy's placement into one migration plan."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Tuple

from repro.balance.instrument import LBDatabase
from repro.balance.strategies import Strategy

__all__ = ["LBManager", "RebalanceReport"]

#: One LB step's moves: ``(obj, dst_pe)`` pairs in object-key order.
Plan = List[Tuple[Hashable, int]]


@dataclass(frozen=True)
class RebalanceReport:
    """What one rebalance decided."""

    strategy: str
    epoch: int
    objects: int
    migrations: int
    imbalance_before: float
    imbalance_after: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.strategy} epoch {self.epoch}] {self.objects} objs, "
                f"{self.migrations} migrations, max/avg "
                f"{self.imbalance_before:.2f} -> {self.imbalance_after:.2f}")


class LBManager:
    """Runs a strategy against the database and plans the moves.

    The manager moves nothing: :meth:`rebalance` returns the plan, and
    the runtime that owns the objects migrates it (in AMPI,
    ``AmpiRuntime._run_rebalance``), telling the database where a move
    it could not make left the object.
    """

    def __init__(self, db: LBDatabase, strategy: Strategy):
        self.db = db
        self.strategy = strategy

    def rebalance(self) -> Tuple[RebalanceReport, Plan]:
        """Measure, decide, and open a new measurement window.

        The strategy gets every measurement it reads as an argument.
        Returns the report and the plan: each object the strategy moved
        with its new processor, sorted by ``str`` of the object.  Every
        planned move is recorded in the database before the window
        closes, so the report's ``imbalance_after`` and the window's
        ``lb.imbalance`` reading see the planned placement.
        """
        db = self.db
        loads = db.intrinsic_loads()
        current = db.placement()
        before = db.imbalance()
        new = self.strategy.map_objects(loads, current, db.npes,
                                        speeds=db.pe_speeds(),
                                        comm=db.comm_graph())
        missing = set(loads) - set(new)
        if missing:
            raise ValueError(
                f"{self.strategy.name} dropped objects: {sorted(map(str, missing))}")
        plan = [(obj, dst)
                for obj, dst in sorted(new.items(), key=lambda kv: str(kv[0]))
                if current.get(obj) != dst]
        for obj, dst in plan:
            db.moved(obj, dst)
        report = RebalanceReport(
            strategy=self.strategy.name,
            epoch=db.epoch,
            objects=len(loads),
            migrations=len(plan),
            imbalance_before=before,
            imbalance_after=db.imbalance(),
        )
        db.reset_loads()
        return report, plan
