"""Ablation: blocking-call handling vs server throughput.

Paper Section 2.3: a user-level thread's blocking call suspends the whole
process unless the runtime intercepts it.  This bench runs the same
many-clients server workload under both modes and sweeps the client count:
naive blocking serializes the I/O (makespan ~ N * io), interception
overlaps it (makespan ~ io + N * compute).
"""

from repro.bench.report import emit, render_series
from repro.core import CthScheduler, IsomallocArena, IsomallocStacks
from repro.sim import Cluster

IO_NS = 500_000.0
COMPUTE_NS = 50_000.0
CLIENT_COUNTS = [4, 8, 16, 32]


def run_server(io_mode, clients):
    cluster = Cluster(1)
    arena = IsomallocArena(cluster.platform.layout(), 1,
                           slot_bytes=64 * 1024)
    sched = CthScheduler(
        cluster[0],
        IsomallocStacks(cluster[0].space, cluster.platform, arena, 0,
                        stack_bytes=8 * 1024),
        io_mode=io_mode)
    done = []

    def handler(th, cid):
        yield ("io", IO_NS)
        th.charge(COMPUTE_NS)
        done.append(cid)

    for cid in range(clients):
        sched.create(lambda th, cid=cid: handler(th, cid))
    while len(done) < clients:
        progressed = sched.run() > 0
        progressed |= cluster.run() > 0
        assert progressed
    return cluster[0].now


def test_ablation_io_interception(benchmark):
    naive = [run_server("naive", n) / 1e6 for n in CLIENT_COUNTS]
    smart = [run_server("intercept", n) / 1e6 for n in CLIENT_COUNTS]
    emit("ablation_io.txt",
         render_series("clients", CLIENT_COUNTS,
                       {"naive_ms": naive, "intercept_ms": smart},
                       "Ablation: server makespan (ms) vs clients, naive "
                       "blocking vs intercepted blocking calls"))

    for i, n in enumerate(CLIENT_COUNTS):
        # Naive pays the I/O serially.
        assert naive[i] >= n * IO_NS / 1e6
        # Interception overlaps all I/O: one io + the serial compute.
        assert smart[i] < (IO_NS + n * COMPUTE_NS) / 1e6 * 1.5
        assert smart[i] < naive[i]
    # The advantage grows with concurrency.
    assert naive[-1] / smart[-1] > naive[0] / smart[0]

    benchmark(lambda: run_server("intercept", 8))
