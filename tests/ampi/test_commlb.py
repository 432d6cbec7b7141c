"""Tests for communication-aware load balancing (GreedyCommLB)."""

from repro.ampi import AmpiRuntime
from repro.balance import GreedyCommLB, GreedyLB
from repro.balance.instrument import LBDatabase


# -- strategy unit tests ---------------------------------------------------

def test_commlb_colocates_chatty_pairs():
    """Equal loads, heavy traffic inside pairs: each pair shares a PE."""
    loads = {i: 10.0 for i in range(4)}
    out = GreedyCommLB(byte_cost=1.0).map_objects(
        loads, {}, 2, comm={(0, 1): 10_000, (2, 3): 10_000})
    assert out[0] == out[1]
    assert out[2] == out[3]
    assert out[0] != out[2]              # still balanced across PEs


def test_commlb_without_traffic_behaves_like_greedy():
    loads = {i: float(10 - i) for i in range(8)}
    comm_out = GreedyCommLB(byte_cost=1.0).map_objects(loads, {}, 4)
    greedy_out = GreedyLB().map_objects(loads, {}, 4)

    def pe_loads(p):
        out = [0.0] * 4
        for o, pe in p.items():
            out[pe] += loads[o]
        return sorted(out)

    assert pe_loads(comm_out) == pe_loads(greedy_out)


def test_commlb_tradeoff_knob():
    """High byte_cost sacrifices balance for locality; zero does not."""
    loads = {0: 10.0, 1: 10.0, 2: 1.0, 3: 1.0}
    comm = {(0, 1): 1_000_000}          # objects 0 and 1 are inseparable

    out_hi = GreedyCommLB(byte_cost=100.0).map_objects(loads, {}, 2,
                                                       comm=comm)
    assert out_hi[0] == out_hi[1]       # locality wins

    out_lo = GreedyCommLB(byte_cost=0.0).map_objects(loads, {}, 2,
                                                     comm=comm)
    assert out_lo[0] != out_lo[1]       # pure LPT splits the heavies


# -- database comm recording ------------------------------------------------

def test_db_records_comm_bidirectionally():
    db = LBDatabase(2)
    db.register("a", 0)
    db.register("b", 1)
    db.record_comm("a", "b", 100)
    db.record_comm("b", "a", 50)
    assert db.comm_graph() == {("a", "b"): 100, ("b", "a"): 50}
    assert db.comm_between("a", "b") == 150
    db.reset_loads()
    assert db.comm_graph() == {}


def test_db_ignores_untracked_and_self_comm():
    db = LBDatabase(2)
    db.register("a", 0)
    db.record_comm("a", "ghost", 100)
    db.record_comm("a", "a", 100)
    assert db.comm_graph() == {}


# -- end to end through AMPI ---------------------------------------------------

def test_ampi_records_comm_and_commlb_uses_it():
    """Chatty rank pairs end up co-located after MPI_Migrate."""
    placements = {}

    def main(mpi):
        # Pairs (0,1), (2,3), ... exchange large messages; everyone works
        # equally, so only communication distinguishes placements.
        peer = mpi.rank + 1 if mpi.rank % 2 == 0 else mpi.rank - 1
        for it in range(2):
            mpi.send(peer, None, tag=("chat", it), size_bytes=500_000)
            yield from mpi.recv(source=peer, tag=("chat", it))
            mpi.charge(10_000.0)
        yield from mpi.migrate()
        placements[mpi.rank] = mpi.my_pe

    rt = AmpiRuntime(2, 8, main, strategy=GreedyCommLB(byte_cost=10.0))
    rt.run()
    for even in range(0, 8, 2):
        assert placements[even] == placements[even + 1], placements
    # Both processors still host someone.
    assert len(set(placements.values())) == 2
