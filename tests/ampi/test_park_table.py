"""Why a rank is parked: one plain-data record in one table.

A blocking AMPI operation leaves one record in ``AmpiRuntime.parked``
before it suspends — a receive pattern, a request set with its all/any
mode, the migrate barrier, the checkpoint barrier — and every consumer
(the wake-ups, the barrier releases, the deadlock report, ``replay_at``)
derives from that table.  It used to be four containers, one of them a
dict of lambdas, and each consumer had to remember all four.
"""

import pytest

from repro.ampi import ANY_SOURCE, ANY_TAG, AmpiRuntime
from repro.ampi.context import AT_CHECKPOINT, AT_MIGRATE
from repro.core.pup import pack_value, unpack_value
from repro.errors import AmpiError


def deadlocked(main, num_ranks):
    with pytest.raises(AmpiError, match="deadlock") as e:
        AmpiRuntime(1, num_ranks, main).run()
    return e.value


def test_deadlock_report_names_every_parked_rank():
    """The report was built from three of the four containers: a rank at
    the checkpoint barrier was in none of them."""
    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.checkpoint()
        elif mpi.rank == 1:
            yield from mpi.migrate()
        else:
            yield from mpi.recv(tag="never")

    error = deadlocked(main, 3)
    assert error.parked == {0: AT_CHECKPOINT, 1: AT_MIGRATE,
                            2: ("recv", ANY_SOURCE, "never")}
    # The text is pinned by the chaos fingerprints (and they by
    # ``perf/expected.json``), silence about the checkpoint barrier
    # included: it keeps its lines and their order.
    assert str(error).splitlines()[1:] == [
        "rank 2 waiting for recv(source=ANY, tag=never)",
        "rank 1 at MPI_Migrate barrier"]


def park(blocking_op):
    """The record rank 0 is left with when ``blocking_op`` never ends."""
    def main(mpi):
        if mpi.rank == 0:
            yield from blocking_op(mpi)
        else:
            yield from mpi.recv(source=0, tag="never")

    return deadlocked(main, 2).parked[0]


def two_irecvs(mpi):
    return [mpi.irecv(source=1, tag=tag) for tag in ("a", "b")]


@pytest.mark.parametrize("blocking_op,record", [
    (lambda mpi: mpi.recv(source=1, tag=("halo", 3)),
     ("recv", 1, ("halo", 3))),
    (lambda mpi: mpi.recv(), ("recv", ANY_SOURCE, ANY_TAG)),
    (lambda mpi: mpi.waitall(two_irecvs(mpi)), ("wait", "all", (0, 1))),
    (lambda mpi: mpi.waitany(two_irecvs(mpi)), ("wait", "any", (0, 1))),
    (lambda mpi: mpi.migrate(), AT_MIGRATE),
    (lambda mpi: mpi.checkpoint(), AT_CHECKPOINT),
], ids=["recv", "recv-any", "waitall", "waitany", "migrate", "checkpoint"])
def test_a_park_record_is_plain_data(blocking_op, record):
    """Each of the four reasons packs and unpacks to an equal record (a
    wait predicate held as a lambda did not pack at all)."""
    assert park(blocking_op) == record
    assert unpack_value(pack_value(record)) == record


@pytest.mark.parametrize("wait,expected", [("waitall", ["A", "B"]),
                                           ("waitany", (0, "A"))])
def test_a_round_tripped_record_still_wakes_its_rank(wait, expected):
    """Nothing about a parked rank lives outside its record: swap in a
    copy that went through bytes and the wake-up still finds it."""
    out = []

    def main(mpi):
        if mpi.rank == 1:
            reqs = [mpi.irecv(source=0, tag=tag) for tag in ("a", "b")]
            out.append((yield from getattr(mpi, wait)(reqs)))
        else:
            yield from mpi.yield_()         # let rank 1 park first
            mpi.send(1, "A", tag="a")
            mpi.send(1, "B", tag="b")

    rt = AmpiRuntime(1, 2, main)
    rt.schedulers[0].run(max_switches=2)    # rank 0 yields, rank 1 parks
    assert rt.parked == {1: ("wait", wait[4:], (0, 1))}
    rt.parked[1] = unpack_value(pack_value(rt.parked[1]))
    rt.run()
    assert out == [expected] and not rt.parked


def test_waitall_sleeps_until_its_last_receive_completes():
    """One of two receives completing neither wakes a waitall nor
    touches its record."""
    seen = []

    def main(mpi):
        if mpi.rank == 1:
            reqs = [mpi.irecv(source=0, tag=tag) for tag in ("a", "b")]
            yield from mpi.waitall(reqs)
        else:
            yield from mpi.yield_()
            mpi.send(1, "A", tag="a")
            seen.append((dict(mpi.runtime.parked),
                         mpi.runtime.rank_thread[1].state.value))
            mpi.send(1, "B", tag="b")

    rt = AmpiRuntime(1, 2, main)
    rt.run()
    assert seen == [({1: ("wait", "all", (0, 1))}, "suspended")]
    assert rt.done and not rt.parked
