"""Tests for communicators and MPI_Comm_split."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.ampi import AmpiRuntime
from repro.errors import AmpiError


def run_world(main, num_procs=2, num_ranks=8, **kw):
    rt = AmpiRuntime(num_procs, num_ranks, main, **kw)
    rt.run()
    return rt


def test_world_communicator_identity():
    out = {}

    def main(mpi):
        w = mpi.world
        out[mpi.rank] = (w.rank, w.size, w.members)
        yield from mpi.barrier()

    run_world(main, num_ranks=4)
    for r in range(4):
        assert out[r] == (r, 4, [0, 1, 2, 3])


def test_split_even_odd():
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(color=mpi.rank % 2)
        out[mpi.rank] = (sub.rank, sub.size, tuple(sub.members))

    run_world(main, num_ranks=8)
    for r in range(8):
        local, size, members = out[r]
        assert size == 4
        assert members == tuple(range(r % 2, 8, 2))
        assert members[local] == r


def test_split_key_reorders():
    out = {}

    def main(mpi):
        # Reverse ordering within the single color group.
        sub = yield from mpi.comm_split(color=0, key=-mpi.rank)
        out[mpi.rank] = (sub.rank, tuple(sub.members))

    run_world(main, num_ranks=4)
    # Members sorted by key: rank 3 first.
    assert all(m == (3, 2, 1, 0) for _, m in out.values())
    assert out[3][0] == 0
    assert out[0][0] == 3


def test_split_undefined_color():
    out = {}

    def main(mpi):
        color = 0 if mpi.rank < 2 else None
        sub = yield from mpi.comm_split(color)
        out[mpi.rank] = None if sub is None else tuple(sub.members)

    run_world(main, num_ranks=4)
    assert out[0] == out[1] == (0, 1)
    assert out[2] is None and out[3] is None


def test_subcomm_collectives_are_scoped():
    """Reductions on different sub-communicators do not cross-talk."""
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(color=mpi.rank % 2)
        total = yield from sub.allreduce(mpi.rank, op="sum")
        out[mpi.rank] = total

    run_world(main, num_ranks=8)
    evens = sum(r for r in range(8) if r % 2 == 0)
    odds = sum(r for r in range(8) if r % 2 == 1)
    for r in range(8):
        assert out[r] == (evens if r % 2 == 0 else odds)


def test_subcomm_barrier_and_bcast():
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(color=mpi.rank // 4)
        data = f"group{mpi.rank // 4}" if sub.rank == 0 else None
        data = yield from sub.bcast(data, root=0)
        yield from sub.barrier()
        out[mpi.rank] = data

    run_world(main, num_ranks=8)
    for r in range(8):
        assert out[r] == f"group{r // 4}"


def test_subcomm_gather_allgather():
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(color=mpi.rank % 2)
        g = yield from sub.gather(mpi.rank * 2, root=0)
        ag = yield from sub.allgather(mpi.rank)
        out[mpi.rank] = (g, ag)

    run_world(main, num_ranks=6)
    for r in range(6):
        g, ag = out[r]
        group = list(range(r % 2, 6, 2))
        assert ag == group
        if r == group[0]:
            assert g == [x * 2 for x in group]
        else:
            assert g is None


def test_subcomm_point_to_point_local_ranks():
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(color=mpi.rank % 2)
        if sub.rank == 0:
            sub.send(1, ("from-leader", mpi.rank))
        elif sub.rank == 1:
            out[mpi.rank] = yield from sub.recv(source=0)

    run_world(main, num_ranks=8)
    assert out[2] == ("from-leader", 0)
    assert out[3] == ("from-leader", 1)


def test_nested_split():
    """Splitting a sub-communicator again works (half of a half)."""
    out = {}

    def main(mpi):
        half = yield from mpi.comm_split(color=mpi.rank // 4)
        quarter = yield from half.split(color=half.rank // 2)
        total = yield from quarter.allreduce(1, op="sum")
        out[mpi.rank] = (total, tuple(quarter.members))

    run_world(main, num_ranks=8)
    for r in range(8):
        total, members = out[r]
        assert total == 2
        assert r in members and len(members) == 2


def test_bad_local_rank():
    boom = {}

    def main(mpi):
        try:
            mpi.world.world_rank(99)
        except AmpiError as e:
            boom["msg"] = str(e)
        yield from mpi.barrier()

    run_world(main, num_ranks=2)
    assert "bad local rank" in boom["msg"]


def test_non_member_construction_rejected():
    from repro.ampi.communicator import Communicator

    def main(mpi):
        if mpi.rank == 0:
            with pytest.raises(AmpiError):
                Communicator(mpi, members=[1], comm_id=9)
        yield from mpi.barrier()

    run_world(main, num_ranks=2)


def test_subcomm_scatter_and_alltoall():
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(color=mpi.rank % 2)
        vals = [f"{mpi.rank}->{i}" for i in range(sub.size)] \
            if sub.rank == 0 else None
        piece = yield from sub.scatter(vals, root=0)
        a2a = yield from sub.alltoall([(mpi.rank, i)
                                       for i in range(sub.size)])
        out[mpi.rank] = (piece, a2a)

    run_world(main, num_ranks=8)
    for r in range(8):
        piece, a2a = out[r]
        group = list(range(r % 2, 8, 2))
        local = group.index(r)
        assert piece == f"{group[0]}->{local}"
        assert a2a == [(src, local) for src in group]


_WILDCARD_RECV = textwrap.dedent("""
    import json
    from repro.ampi import AmpiRuntime

    got = []

    def main(mpi):
        a = yield from mpi.comm_split(0)
        b = yield from mpi.comm_split(0)    # sibling: same members, own tags
        if mpi.rank == 1:                   # on the other processor
            b.send(0, "on-b", tag=3)
            mpi.charge(50_000)
            a.send(0, "on-a", tag=7)
        else:
            got.append((yield from a.recv()))           # ANY_SOURCE, ANY_TAG
            got.append((yield from b.recv(source=1)))   # source=k, ANY_TAG

    AmpiRuntime(2, 2, main).run()
    print(json.dumps(got))
""")


def test_wildcard_recv_suspends_until_its_communicator_has_traffic():
    """A wildcard-tag receive on a sub-communicator whose sender lives on
    another processor must suspend, not poll: a polling rank keeps its
    scheduler busy forever, the network never drains, and the host hangs
    (hence the subprocess and its timeout).  The sibling communicator's
    earlier message must stay queued for its own receive."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _WILDCARD_RECV],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["on-a", "on-b"]
