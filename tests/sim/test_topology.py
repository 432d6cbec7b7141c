"""Tests for interconnect topologies and hop-aware delivery."""

import pytest

from repro.errors import ReproError
from repro.sim import (Cluster, FatTree, FullyConnected, Network, Torus3D)


def test_fully_connected():
    t = FullyConnected(4)
    assert t.hops(0, 0) == 0
    assert t.hops(0, 3) == 1
    assert t.diameter() == 1
    with pytest.raises(ReproError):
        t.hops(0, 4)


def test_torus_wraparound():
    t = Torus3D((4, 4, 4))
    assert t.size() == 64
    assert t.hops(0, 0) == 0
    # Neighbor along x.
    assert t.hops(0, 1) == 1
    # Wrap-around: x=0 to x=3 is one hop on a 4-torus.
    assert t.hops(0, 3) == 1
    # Opposite corner: 2 hops per dimension.
    far = t.coords(0), t.hops(0, 2 + 2 * 4 + 2 * 16)
    assert far[1] == 6
    assert t.diameter() == 6


def test_torus_symmetry():
    t = Torus3D((3, 4, 2))
    for a in range(0, 24, 5):
        for b in range(0, 24, 7):
            assert t.hops(a, b) == t.hops(b, a)


def test_fat_tree():
    t = FatTree(32, radix=8)
    assert t.hops(0, 0) == 0
    assert t.hops(0, 7) == 2          # same leaf switch
    assert t.hops(0, 8) == 4          # across the core
    assert t.diameter() == 4
    with pytest.raises(ReproError):
        FatTree(8, radix=0)


def test_network_hop_latency():
    net = Network(latency_ns=1000, bytes_per_ns=1.0, per_hop_ns=100,
                  topology=Torus3D((2, 2, 2)))
    near = net.transfer_ns(0, src=0, dst=1)      # 1 hop
    far = net.transfer_ns(0, src=0, dst=7)       # 3 hops
    assert far - near == pytest.approx(200.0)
    # Without endpoints the hop term is skipped (backward compatible).
    assert net.transfer_ns(0) == 1000.0


def test_cluster_delivery_respects_topology():
    net = Network(latency_ns=1000, bytes_per_ns=1.0,
                  per_message_cpu_ns=0.0, per_hop_ns=10_000,
                  topology=FatTree(8, radix=4))
    cl = Cluster(8, network=net)
    times = {}
    cl[1].register("", lambda m: times.__setitem__("near", cl[1].now))
    cl[5].register("", lambda m: times.__setitem__("far", cl[5].now))
    cl.send(0, 1, "x", 10)       # same leaf: 2 hops
    cl.send(0, 5, "x", 10)       # cross-core: 4 hops
    cl.run()
    assert times["far"] - times["near"] == pytest.approx(20_000.0)


def test_zero_hop_delivery_equals_flat_network_bit_for_bit():
    """``Network.delivery_time`` prices a topology-less wire in one
    expression; a topology contributing zero hops must agree exactly."""
    flat = Network()
    zero_hops = [(Network(topology=Torus3D((2, 2, 2))), 3, 3),
                 (Network(topology=FullyConnected(4), per_hop_ns=0.0), 0, 1)]
    for send_time in (0.0, 0.1, 1234.5678, 1e9 / 3, 57146728.0):
        for size in (0, 1, 7, 40, 1000, 41_920, 10**6 + 1, 2**31 + 3):
            want = flat.delivery_time(send_time, size, 0, 1)
            assert want == (send_time + flat.per_message_cpu_ns
                            + flat.transfer_ns(size))
            for net, src, dst in zero_hops:
                assert net.delivery_time(send_time, size, src, dst) == want
