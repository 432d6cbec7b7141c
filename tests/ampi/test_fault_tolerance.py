"""Tests for AMPI coordinated checkpointing and failure recovery."""

import pytest

from repro.ampi import AmpiRuntime
from repro.core.thread import ThreadState
from repro.errors import AmpiError


def test_checkpoint_barrier_writes_all_ranks():
    def main(mpi):
        th = mpi.thread
        cell = th.malloc(8)
        th.write_word(cell, 1000 + mpi.rank)
        yield from mpi.checkpoint()
        yield from mpi.barrier()

    rt = AmpiRuntime(2, 4, main)
    rt.run()
    assert set(rt.last_checkpoint) == {0, 1, 2, 3}
    assert rt.checkpointer.checkpoints_taken == 4
    assert rt.checkpointer.bytes_written > 0


def test_checkpoint_charges_disk_time():
    def main(mpi):
        mpi.thread.malloc(16 * 1024)
        yield from mpi.checkpoint()

    rt = AmpiRuntime(1, 2, main)
    before = rt.cluster[0].now
    rt.run()
    # Two 16K+ images through a ~100 MB/s disk with 8 ms seeks.
    assert rt.cluster[0].now - before > 16_000_000


def test_failure_at_checkpoint_recovers_state():
    """Fail one processor inside the checkpoint window; recover its ranks
    from the fresh images and finish the computation correctly."""
    out = {}

    def main(mpi):
        th = mpi.thread
        cell = th.malloc(8)
        th.write_word(cell, 7000 + mpi.rank)
        yield from mpi.checkpoint()
        out[mpi.rank] = (th.read_word(cell), mpi.my_pe)

    rt = AmpiRuntime(2, 4, main)
    failed = {}

    def inject_failure(runtime):
        if failed:
            return                       # only fail once
        # Processor 0 "fails": its ranks (0 and 2) lose all local state.
        sched = runtime.schedulers[0]
        for rank in (0, 2):
            thread = runtime.rank_thread[rank]
            sched.remove(thread)
            sched.stack_manager.evacuate(thread.stack)
            failed[rank] = True
        # Recover both onto processor 1 from the just-written images.
        runtime.recover_rank(0, dst_pe=1)
        runtime.recover_rank(2, dst_pe=1)

    rt.cluster.queue.hooks.subscribe("checkpoint.barrier", inject_failure)
    rt.run()
    assert failed == {0: True, 2: True}
    # All four ranks completed; recovered ranks kept their heap state and
    # now run on the surviving processor.
    assert out[0] == (7000, 1)
    assert out[2] == (7002, 1)
    assert out[1][0] == 7001
    assert out[3][0] == 7003


def test_each_checkpoint_barrier_is_published_with_the_runtime():
    """``checkpoint.barrier`` is the runtime's own channel: a plain
    subscriber sees one visit per barrier, after every image is on disk
    and before any rank resumes."""
    def main(mpi):
        yield from mpi.checkpoint()
        mpi.charge(1000.0)
        yield from mpi.checkpoint()

    rt = AmpiRuntime(2, 4, main)
    visits = []
    rt.cluster.queue.hooks.subscribe(
        "checkpoint.barrier",
        lambda runtime: visits.append(
            (runtime, runtime.checkpointer.checkpoints_taken,
             {t.state for t in runtime.rank_thread})))
    rt.run()
    resting = {ThreadState.SUSPENDED}
    assert visits == [(rt, 4, resting), (rt, 8, resting)]


def test_recover_without_checkpoint_rejected():
    def main(mpi):
        yield from mpi.barrier()

    rt = AmpiRuntime(2, 2, main)
    rt.run()
    with pytest.raises(AmpiError, match="no checkpoint"):
        rt.recover_rank(0, 1)


def test_repeated_checkpoints_keep_latest():
    def main(mpi):
        for _ in range(3):
            mpi.charge(1000.0)
            yield from mpi.checkpoint()

    rt = AmpiRuntime(1, 2, main)
    rt.run()
    assert rt.checkpointer.checkpoints_taken == 6
    # last_checkpoint points at the newest epoch for each rank.
    assert all(key.startswith("ampi-r") for key in rt.last_checkpoint.values())


def test_checkpoint_then_migrate_compose():
    """Checkpoint and LB-migrate barriers in the same program."""
    def main(mpi):
        mpi.charge(10_000.0 * (mpi.rank + 1))
        yield from mpi.checkpoint()
        yield from mpi.migrate()
        yield from mpi.barrier()

    rt = AmpiRuntime(2, 4, main)
    rt.run()
    assert rt.done
    assert len(rt.last_checkpoint) == 4
    assert len(rt.reports) == 1
