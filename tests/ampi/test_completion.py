"""A rank's completion accounting: the scheduler's ``on_exit`` callback.

A rank counts as finished and leaves the LB database exactly once, when
its body is over — whether it returned or raised (a chaos crash raises
``CommError`` inside a rank, and the chaos state digest reads
``_finished``).
"""

import pytest

from repro.ampi import AmpiRuntime


class Boom(Exception):
    pass


def test_a_rank_that_raises_still_counts_as_finished():
    def main(mpi):
        if mpi.rank == 1:
            raise Boom("rank 1")
        yield from mpi.recv(tag="never")

    rt = AmpiRuntime(2, 3, main)
    with pytest.raises(Boom):
        rt.run()
    assert rt._finished == 1
    assert [rt.db.tracks(r) for r in range(3)] == [True, False, True]


def test_a_rank_that_returns_is_counted_exactly_once():
    def main(mpi):
        yield from mpi.barrier()

    rt = AmpiRuntime(2, 5, main)
    rt.run()
    assert rt.done and rt._finished == 5
    assert not any(rt.db.tracks(r) for r in range(5))
    assert sum(s.threads_finished for s in rt.schedulers) == 5
