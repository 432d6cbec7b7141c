"""Tests for AMPI operators and the runtime summary."""

import numpy as np
import pytest

from repro.ampi import AmpiRuntime, OPS
from repro.ampi.datatypes import apply_op
from repro.balance import GreedyLB
from repro.errors import AmpiError


def test_apply_op_scalars():
    assert apply_op("sum", [1, 2, 3]) == 6
    assert apply_op("prod", [2, 3]) == 6
    assert apply_op("min", [5, 2, 9]) == 2
    assert apply_op("max", [5, 2, 9]) == 9
    assert apply_op("land", [1, 1]) is True
    assert apply_op("lor", [0, 0]) is False


def test_apply_op_numpy_elementwise():
    a, b = np.array([1.0, 5.0]), np.array([3.0, 2.0])
    np.testing.assert_array_equal(apply_op("min", [a, b]), [1.0, 2.0])
    np.testing.assert_array_equal(apply_op("max", [a, b]), [3.0, 5.0])
    np.testing.assert_array_equal(apply_op("sum", [a, b]), [4.0, 7.0])


@pytest.mark.parametrize("scalar", [3.0, np.float64(3.0), 3],
                         ids=["float", "float64", "int"])
def test_min_max_mixing_arrays_and_scalars_ignore_fold_order(scalar):
    """A reduction folds ``[acc, partial]`` in tree order, so an array may
    arrive on either side of a scalar; both orders go elementwise."""
    a = np.array([1.0, 5.0])
    for values in ([a, scalar], [scalar, a]):
        np.testing.assert_array_equal(apply_op("min", values), [1.0, 3.0])
        np.testing.assert_array_equal(apply_op("max", values), [3.0, 5.0])


def test_apply_op_errors():
    with pytest.raises(AmpiError):
        apply_op("median", [1])
    with pytest.raises(AmpiError):
        apply_op("sum", [])


def test_ops_table():
    assert {"sum", "prod", "min", "max", "land", "lor"} == set(OPS)


def test_runtime_summary_mentions_key_facts():
    def main(mpi):
        mpi.charge(1e6 if mpi.rank % 2 == 0 else 1e4)
        yield from mpi.migrate()
        yield from mpi.allreduce(1)
        yield from mpi.checkpoint()
        yield from mpi.checkpoint()

    rt = AmpiRuntime(2, 6, main, strategy=GreedyLB())
    rt.run()
    text = rt.summary()
    assert "6 ranks on 2 processors" in text
    assert "finished ranks   : 6/6" in text
    assert "migrations" in text
    assert "GreedyLB" in text
    # Twelve images written; the disk keeps one generation per rank, so
    # the line reports bytes written, not bytes held.
    ck = rt.checkpointer
    assert ck.checkpoints_taken == 12
    assert len(ck.records()) == 6
    assert (f"  checkpoints      : 12 ({ck.bytes_written / 1024:.1f} "
            f"KiB written)") in text.splitlines()
    assert "\\n" not in text              # real newlines, not escapes


def test_binomial_collectives_message_counts():
    """Binomial bcast: the root sends log2(P), not P-1, messages."""
    def main(mpi):
        yield from mpi.bcast("x" * 1000, root=0)

    rt = AmpiRuntime(8, 8, main)
    rt.run()
    # Rank r sends to r+2^k: rank 0 sends exactly ceil(log2(8)) = 3.
    assert rt.cluster[0].messages_sent == 3
    total = sum(p.messages_sent for p in rt.cluster.processors)
    assert total == 7                     # P-1 transfers over the whole tree


def test_rank_profile_rows():
    from repro.ampi import AmpiRuntime
    from repro.balance import GreedyLB

    def main(mpi):
        mpi.charge(1e6 if mpi.rank in (0, 2) else 1e4)
        yield from mpi.migrate()

    rt = AmpiRuntime(2, 4, main, strategy=GreedyLB())
    rt.run()
    rows = rt.rank_profile()
    assert len(rows) == 4
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    # Heavy ranks show ~1 ms of work; someone migrated.
    assert rows[0][2] > 0.9
    assert sum(r[4] for r in rows) == rt.migrator.migrations_completed
    assert all(rows[i][1] == rt.rank_pe(i) for i in range(4))
