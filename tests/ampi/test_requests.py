"""Tests for non-blocking AMPI operations (isend/irecv/wait*)."""

import pytest

from repro.ampi import AmpiRuntime
from repro.errors import AmpiError


def run_world(main, num_procs=2, num_ranks=2, **kw):
    rt = AmpiRuntime(num_procs, num_ranks, main, **kw)
    rt.run()
    return rt


def test_isend_completes_immediately():
    out = {}

    def main(mpi):
        if mpi.rank == 0:
            req = mpi.isend(1, "hello")
            out["done"] = mpi.test(req)
            yield from mpi.wait(req)     # trivially complete
        else:
            out["got"] = yield from mpi.recv(source=0)

    run_world(main)
    assert out == {"done": True, "got": "hello"}


def test_irecv_wait_roundtrip():
    out = {}

    def main(mpi):
        if mpi.rank == 1:
            req = mpi.irecv(source=0, tag="x")
            out["early"] = mpi.test(req)
            data = yield from mpi.wait(req)
            out["data"] = data
            out["late"] = mpi.test(req)
        else:
            yield from mpi.yield_()       # let the irecv post first
            mpi.send(1, 42, tag="x")

    run_world(main, num_procs=1)
    assert out == {"early": False, "data": 42, "late": True}


def test_posted_receive_matches_before_unexpected_queue():
    """MPI matching rule: a posted irecv wins over a later blocking recv."""
    out = {}

    def main(mpi):
        if mpi.rank == 1:
            req = mpi.irecv(source=0, tag="m")
            yield from mpi.yield_()
            # The message should have completed the posted request, NOT
            # be sitting in the unexpected queue.
            out["probe"] = mpi.iprobe(source=0, tag="m")
            out["req_done"] = mpi.test(req)
            out["data"] = req.data
        else:
            mpi.send(1, "payload", tag="m")
            yield from mpi.yield_()

    run_world(main, num_procs=1)
    assert out == {"probe": False, "req_done": True, "data": "payload"}


def test_irecv_matches_existing_unexpected_message():
    out = {}

    def main(mpi):
        if mpi.rank == 1:
            yield from mpi.yield_()        # message arrives first
            yield from mpi.yield_()
            req = mpi.irecv(source=0)
            out["immediate"] = mpi.test(req)
            out["data"] = yield from mpi.wait(req)
        else:
            mpi.send(1, 7)
            yield from mpi.yield_()

    run_world(main, num_procs=1)
    assert out == {"immediate": True, "data": 7}


def test_waitall():
    out = {}

    def main(mpi):
        if mpi.rank == 0:
            reqs = [mpi.irecv(source=1, tag=i) for i in range(4)]
            out["all"] = yield from mpi.waitall(reqs)
        else:
            for i in reversed(range(4)):   # send out of order
                mpi.send(0, i * 10, tag=i)
            yield from mpi.yield_()

    run_world(main)
    assert out["all"] == [0, 10, 20, 30]   # in posting order


def test_waitany():
    out = {}

    def main2(mpi):
        if mpi.rank == 0:
            reqs = [mpi.irecv(source=1, tag="never"),
                    mpi.irecv(source=1, tag="soon")]
            idx, data = yield from mpi.waitany(reqs)
            out["first"] = (idx, data)
            mpi.send(1, "go", tag="done")
            out["rest"] = yield from mpi.wait(reqs[0])
        else:
            mpi.send(0, "fast", tag="soon")
            yield from mpi.recv(source=0, tag="done")
            mpi.send(0, "slow", tag="never")

    run_world(main2)
    assert out["first"] == (1, "fast")
    assert out["rest"] == "slow"


def test_waitany_empty_rejected():
    boom = {}

    def main(mpi):
        try:
            yield from mpi.waitany([])
        except AmpiError as e:
            boom["msg"] = str(e)

    run_world(main, num_ranks=1, num_procs=1)
    assert "no requests" in boom["msg"]


def test_request_data_before_completion_rejected():
    boom = {}

    def main(mpi):
        if mpi.rank == 0:
            req = mpi.irecv(source=1)
            try:
                req.data
            except AmpiError as e:
                boom["msg"] = str(e)
            yield from mpi.wait(req)
        else:
            yield from mpi.yield_()
            mpi.send(0, 1)

    run_world(main, num_procs=1)
    assert "not complete" in boom["msg"]


def test_overlapping_computation_and_communication():
    """The non-blocking idiom: post, compute, then wait."""
    out = {}

    def main(mpi):
        peer = 1 - mpi.rank
        req = mpi.irecv(source=peer, tag="halo")
        mpi.send(peer, f"halo-from-{mpi.rank}", tag="halo")
        mpi.charge(100_000)                   # compute while in flight
        out[mpi.rank] = yield from mpi.wait(req)

    run_world(main)
    assert out == {0: "halo-from-1", 1: "halo-from-0"}


@pytest.mark.parametrize("source", [-5, 2])
def test_irecv_from_bad_rank_fails_at_the_call(source):
    """It used to post, and the ``wait`` deadlocked the world."""
    boom = {}

    def main(mpi):
        if mpi.rank == 0:
            try:
                mpi.irecv(source=source)
            except AmpiError as e:
                boom["msg"] = str(e)
        yield from mpi.yield_()

    rt = run_world(main)
    assert boom["msg"] == f"rank 0: receive from bad rank {source} (size 2)"
    assert not rt._posted


def test_deadlock_diagnostics_mention_requests():
    def main(mpi):
        req = mpi.irecv(source=mpi.rank, tag="never")  # self, never sent
        yield from mpi.wait(req)

    with pytest.raises(AmpiError, match="waiting on requests"):
        run_world(main, num_ranks=1, num_procs=1)
