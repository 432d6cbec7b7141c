"""Measurement-based load balancing (paper Sections 3, 4.5).

The paper's load-balancing story: run many more migratable flows than
processors, measure each flow's load, and periodically migrate flows from
overloaded to underloaded processors.  This package provides the load
database, the placement strategies, and the manager that turns a strategy's
output into a migration plan, which the runtime then carries out.
"""

from repro.balance.instrument import LBDatabase
from repro.balance.strategies import (GreedyCommLB, GreedyLB, NullLB,
                                      RandomLB, RefineLB, RotateLB, Strategy)
from repro.balance.manager import LBManager, RebalanceReport

__all__ = [
    "LBDatabase",
    "Strategy",
    "GreedyLB",
    "GreedyCommLB",
    "RefineLB",
    "RotateLB",
    "RandomLB",
    "NullLB",
    "LBManager",
    "RebalanceReport",
]
