"""Property tests for the binomial-tree collectives.

The tree algorithms must agree with the obvious reference for every world
size (especially non-powers-of-two) and every root.
"""

import ast
import collections
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

import repro.ampi
from repro.ampi import AmpiRuntime

COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather",
               "allgather", "scatter", "alltoall")


@given(size=st.integers(min_value=1, max_value=13),
       root=st.integers(min_value=0, max_value=12))
@settings(max_examples=25, deadline=None)
def test_bcast_any_size_any_root(size, root):
    root %= size
    out = {}

    def main(mpi):
        data = {"origin": root} if mpi.rank == root else None
        out[mpi.rank] = (yield from mpi.bcast(data, root=root))

    AmpiRuntime(2, size, main, slot_bytes=64 * 1024,
                stack_bytes=8 * 1024).run()
    assert out == {r: {"origin": root} for r in range(size)}


@given(size=st.integers(min_value=1, max_value=13),
       root=st.integers(min_value=0, max_value=12))
@settings(max_examples=25, deadline=None)
def test_reduce_any_size_any_root(size, root):
    root %= size
    out = {}

    def main(mpi):
        out[mpi.rank] = (yield from mpi.reduce(mpi.rank + 1, op="sum",
                                               root=root))

    AmpiRuntime(2, size, main, slot_bytes=64 * 1024,
                stack_bytes=8 * 1024).run()
    assert out[root] == size * (size + 1) // 2
    assert all(out[r] is None for r in range(size) if r != root)


@given(size=st.integers(min_value=1, max_value=11))
@settings(max_examples=15, deadline=None)
def test_allreduce_and_barrier_any_size(size):
    out = {}

    def main(mpi):
        yield from mpi.barrier()
        out[mpi.rank] = (yield from mpi.allreduce(2 ** mpi.rank, op="sum"))
        yield from mpi.barrier()

    AmpiRuntime(3, size, main, slot_bytes=64 * 1024,
                stack_bytes=8 * 1024).run()
    assert all(v == 2 ** size - 1 for v in out.values())


def test_reduce_fold_order_deterministic():
    """Two identical runs reduce float values to bit-identical results."""
    def make_main(out):
        def main(mpi):
            out[mpi.rank] = (yield from mpi.reduce(0.1 * (mpi.rank + 1),
                                                   op="sum", root=0))
        return main

    a, b = {}, {}
    AmpiRuntime(2, 7, make_main(a)).run()
    AmpiRuntime(2, 7, make_main(b)).run()
    assert a[0] == b[0]


@pytest.mark.parametrize("size", range(1, 10))
def test_split_communicator_collectives_match_reference(size):
    """Every collective on a sub-communicator — members in reverse world
    order, the last local rank as root (non-zero whenever there is one) —
    agrees with the obvious sequential reference."""
    root = size - 1
    out = {}

    def main(mpi):
        sub = yield from mpi.comm_split(
            color=0 if mpi.rank < size else None, key=-mpi.rank)
        if sub is None:
            return
        me = sub.rank
        out[me] = {
            "bcast": (yield from sub.bcast(
                ("origin", me) if me == root else None, root=root)),
            "reduce": (yield from sub.reduce(me + 1, op="sum", root=root)),
            "allreduce": (yield from sub.allreduce(2 ** me, op="sum")),
            "gather": (yield from sub.gather(mpi.rank, root=root)),
            "allgather": (yield from sub.allgather(mpi.rank)),
            "scatter": (yield from sub.scatter(
                [10 * i for i in range(size)] if me == root else None,
                root=root)),
            "alltoall": (yield from sub.alltoall(
                [(me, j) for j in range(size)])),
        }
        yield from sub.barrier()

    AmpiRuntime(3, 10, main, slot_bytes=64 * 1024,
                stack_bytes=8 * 1024).run()
    members = list(range(size - 1, -1, -1))     # world ranks, local order
    for me in range(size):
        assert out[me] == {
            "bcast": ("origin", root),
            "reduce": size * (size + 1) // 2 if me == root else None,
            "allreduce": 2 ** size - 1,
            "gather": members if me == root else None,
            "allgather": members,
            "scatter": 10 * me,
            "alltoall": [(j, me) for j in range(size)],
        }


def test_each_collective_is_implemented_exactly_once():
    """Under ``repro/ampi`` every collective name has exactly one
    definition whose body is more than a single delegating statement, so
    a second (world-only or sub-communicator-only) copy cannot return."""
    implemented = collections.Counter()
    for path in glob.glob(os.path.join(os.path.dirname(repro.ampi.__file__),
                                       "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in COLLECTIVES:
                statements = fn.body[1:] if ast.get_docstring(fn) else fn.body
                if len(statements) > 1:
                    implemented[fn.name] += 1
    assert implemented == dict.fromkeys(COLLECTIVES, 1)
