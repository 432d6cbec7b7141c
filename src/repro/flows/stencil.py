"""The paper's stencil workload: the thread form and what it shares.

One 1-D Jacobi relaxation, in the two forms the compiler relates:

* **thread form** — the blocking-receive generator body inside
  :func:`stencil_program` ("the program's natural control flow",
  Section 2.3);
* **compiled form** — not written at all: :mod:`repro.flows.compile`
  derives it from the thread form, and the differential oracle pins
  its kernel trace byte-identical to the generator's.

The hand-inverted event-object form (Section 2.4's "awkward" shape) is
a chare, :class:`repro.workloads.stencil_chare.StencilChare`, hosted by
:mod:`repro.charm`.  It shares :func:`relax`, :func:`stencil_field` and
:data:`NS_PER_CELL` with the body here, so all three forms' numeric
results are float-exact comparable.  Ghost messages are tagged
``(dir, step)``; the step in the tag is what lets neighbors run
asynchronously without a barrier while still matching
deterministically.
"""

from __future__ import annotations

import random
from typing import List

from repro.flows.runtime import FlowProgram

__all__ = ["relax", "stencil_field", "stencil_program", "NS_PER_CELL"]


def relax(data: List[float], below: float, above: float) -> List[float]:
    """One Jacobi sweep over a rank's cells with ghost values."""
    return [(left + mid + right) / 3.0
            for left, mid, right in zip([below, *data], data,
                                        [*data[1:], above])]


#: Modeled compute cost per cell per sweep (charged, not traced).
NS_PER_CELL = 50.0


def stencil_field(ranks: int, cells: int, seed: int) -> List[List[float]]:
    """The seeded initial field, one strip of ``cells`` per rank."""
    rng = random.Random(seed)
    return [[rng.uniform(0.0, 100.0) for _ in range(cells)]
            for _ in range(ranks)]


def stencil_program(ranks: int, cells: int = 8, steps: int = 4,
                    seed: int = 1) -> FlowProgram:
    """Build the thread-form stencil over the seeded initial field."""
    init = stencil_field(ranks, cells, seed)

    def main(mpi):
        data = list(init[mpi.rank])
        for step in range(steps):
            if mpi.rank > 0:
                mpi.send(mpi.rank - 1, data[0], tag=("up", step))
            if mpi.rank < mpi.nranks - 1:
                mpi.send(mpi.rank + 1, data[len(data) - 1],
                         tag=("down", step))
            if mpi.rank < mpi.nranks - 1:
                above = yield from mpi.recv(source=mpi.rank + 1,
                                            tag=("up", step))
            else:
                above = data[len(data) - 1]
            if mpi.rank > 0:
                below = yield from mpi.recv(source=mpi.rank - 1,
                                            tag=("down", step))
            else:
                below = data[0]
            mpi.charge(NS_PER_CELL * len(data))
            data = relax(data, below, above)
        mpi.results[mpi.rank] = data

    return FlowProgram("stencil", ranks, main)
