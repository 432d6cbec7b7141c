"""Tests for AMPI point-to-point messaging."""

import numpy as np
import pytest

from repro.ampi import ANY_SOURCE, AmpiRuntime, wire_size
from repro.errors import AmpiError, ReproError, ThreadError


def run_world(main, num_procs=2, num_ranks=4, **kw):
    rt = AmpiRuntime(num_procs, num_ranks, main, **kw)
    rt.run()
    return rt


def test_send_recv_pair():
    out = {}

    def main(mpi):
        if mpi.rank == 0:
            mpi.send(1, {"a": 7, "b": 3.14}, tag=11)
        elif mpi.rank == 1:
            out["data"] = yield from mpi.recv(source=0, tag=11)

    run_world(main, num_ranks=2)
    assert out["data"] == {"a": 7, "b": 3.14}


def test_recv_blocks_until_send():
    order = []

    def main(mpi):
        if mpi.rank == 0:
            order.append("r0-before-recv")
            data = yield from mpi.recv(source=1)
            order.append(("r0-got", data))
        else:
            yield from mpi.yield_()          # let rank 0 block first
            order.append("r1-sending")
            mpi.send(0, 99)

    run_world(main, num_procs=1, num_ranks=2)
    assert order == ["r0-before-recv", "r1-sending", ("r0-got", 99)]


def test_any_source_and_tags():
    got = []

    def main(mpi):
        if mpi.rank == 0:
            for _ in range(3):
                msg = yield from mpi.recv_msg(source=ANY_SOURCE, tag="work")
                got.append((msg.src, msg.data))
        else:
            mpi.send(0, mpi.rank * 10, tag="work")

    run_world(main, num_ranks=4)
    assert sorted(got) == [(1, 10), (2, 20), (3, 30)]


def test_tag_selectivity():
    out = {}

    def main(mpi):
        if mpi.rank == 0:
            mpi.send(1, "wrong", tag="b")
            mpi.send(1, "right", tag="a")
        else:
            out["first"] = yield from mpi.recv(source=0, tag="a")
            out["second"] = yield from mpi.recv(source=0, tag="b")

    run_world(main, num_ranks=2)
    assert out == {"first": "right", "second": "wrong"}


def test_fifo_per_pair_same_tag():
    out = []

    def main(mpi):
        if mpi.rank == 0:
            for i in range(5):
                mpi.send(1, i, tag="seq")
        else:
            for _ in range(5):
                out.append((yield from mpi.recv(source=0, tag="seq")))

    run_world(main, num_ranks=2)
    assert out == [0, 1, 2, 3, 4]


def test_numpy_payloads():
    out = {}

    def main(mpi):
        if mpi.rank == 0:
            mpi.send(1, np.arange(100, dtype=np.float64))
        else:
            out["arr"] = yield from mpi.recv(source=0)

    run_world(main, num_ranks=2)
    np.testing.assert_array_equal(out["arr"], np.arange(100.0))


def test_wire_size_drives_network_bytes():
    def main(mpi):
        if mpi.rank == 0:
            mpi.send(1, np.zeros(1000, dtype=np.float64))   # 8000 B + header
        elif mpi.rank == 1:
            yield from mpi.recv(source=0)

    rt = run_world(main, num_procs=2, num_ranks=2)
    assert rt.cluster[0].bytes_sent >= 8000


def test_same_pe_messages_skip_network():
    def main(mpi):
        if mpi.rank == 0:
            mpi.send(2, "local")          # ranks 0 and 2 share PE 0
        elif mpi.rank == 2:
            yield from mpi.recv(source=0)

    rt = run_world(main, num_procs=2, num_ranks=4)
    assert rt.cluster[0].messages_sent == 0


def test_sendrecv():
    out = {}

    def main(mpi):
        peer = 1 - mpi.rank
        got = yield from mpi.sendrecv(peer, f"from{mpi.rank}", source=peer)
        out[mpi.rank] = got

    run_world(main, num_ranks=2)
    assert out == {0: "from1", 1: "from0"}


def test_iprobe():
    out = {}

    def main(mpi):
        if mpi.rank == 0:
            out["before"] = mpi.iprobe(source=1)
            yield from mpi.recv(source=1)     # wait for it to exist
            out["after_consumed"] = mpi.iprobe(source=1)
        else:
            mpi.send(0, "x")

    run_world(main, num_procs=1, num_ranks=2)
    assert out == {"before": False, "after_consumed": False}


def test_send_bad_rank():
    def main(mpi):
        if mpi.rank == 0:
            mpi.send(99, "x")
        yield from mpi.yield_()

    with pytest.raises(AmpiError):
        run_world(main, num_ranks=2)


@pytest.mark.parametrize("dest", [1, 2])      # next processor, same one
def test_send_refuses_negative_size(dest):
    """``size_bytes=-10**9`` used to price the wire negative: the message
    arrived before earlier traffic and ``bytes_sent`` went below zero."""
    def main(mpi):
        if mpi.rank == 0:
            mpi.send(dest, "x", size_bytes=-10**9)
        yield from mpi.yield_()

    with pytest.raises(ReproError, match="-1000000000"):
        run_world(main)


def test_deadlock_detected_with_diagnostics():
    def main(mpi):
        yield from mpi.recv(source=0, tag="never")

    with pytest.raises(AmpiError) as e:
        run_world(main, num_ranks=2)
    assert "deadlock" in str(e.value)
    assert "tag=never" in str(e.value)


def test_wire_size_estimates():
    assert wire_size(np.zeros(10, dtype=np.int64)) == 80 + 64
    assert wire_size(b"abc") == 35
    assert wire_size("abc") == 35
    assert wire_size(5) == 32
    assert wire_size([1, 2]) == 16 + 64
    assert wire_size({"k": 1}) > 32
    assert wire_size(None) == 16


def test_many_ranks_on_few_processors():
    """Processor virtualization: 32 ranks on 2 processors all complete."""
    counters = []

    def main(mpi):
        total = yield from mpi.allreduce(1, op="sum")
        counters.append(total)

    run_world(main, num_procs=2, num_ranks=32, slot_bytes=128 * 1024,
              stack_bytes=8 * 1024)
    assert counters == [32] * 32


def test_runtime_rejects_bad_configs():
    from repro.ampi import AmpiRuntime

    def main(mpi):
        yield "yield"

    with pytest.raises(AmpiError):
        AmpiRuntime(2, 0, main)
    with pytest.raises(ThreadError, match="unknown stack technique"):
        AmpiRuntime(2, 2, main, technique="greenlets")
    with pytest.raises(AmpiError):
        AmpiRuntime(2, 2, main, placement=lambda r: 5)
