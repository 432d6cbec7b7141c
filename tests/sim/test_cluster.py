"""Tests for processors, kernel model, network, and cluster DES."""

import ast
import inspect

import pytest

import repro.sim.cluster
from repro.errors import ProcessLimitExceeded, ReproError, ThreadLimitExceeded
from repro.sim import Cluster, Network, get_platform
from repro.sim.processor import KernelModel, Processor


def test_kernel_model_process_limit():
    km = KernelModel(get_platform("ibm_sp"))   # limit 100
    for _ in range(99):                        # initial program counts as 1
        km.fork()
    with pytest.raises(ProcessLimitExceeded):
        km.fork()
    km.exit_process()
    km.fork()                                  # room again


def test_kernel_model_thread_limit():
    km = KernelModel(get_platform("linux_x86")) # limit 250
    for _ in range(250):
        km.thread_create()
    with pytest.raises(ThreadLimitExceeded):
        km.thread_create()
    km.thread_exit()
    km.thread_create()


def test_kernel_model_unlimited():
    km = KernelModel(get_platform("alpha"))    # kthreads unlimited
    for _ in range(10_000):
        km.thread_create()
    assert km.kthread_count == 10_000


def test_kernel_model_underflow_guards():
    km = KernelModel(get_platform("linux_x86"))
    with pytest.raises(ProcessLimitExceeded):
        km.exit_process()
    with pytest.raises(ThreadLimitExceeded):
        km.thread_exit()


def test_processor_charge_accumulates():
    p = Processor(0, get_platform("linux_x86"))
    p.charge(100)
    p.charge(50)
    assert p.now == 150
    assert p.busy_ns == 150


def test_network_delivery_time():
    net = Network(latency_ns=1000, bytes_per_ns=1.0, per_message_cpu_ns=100)
    assert net.transfer_ns(500) == 1500
    assert net.delivery_time(0.0, 500) == 1600


def test_cluster_message_roundtrip():
    cl = Cluster(2, network=Network(latency_ns=1000, bytes_per_ns=1.0,
                                    per_message_cpu_ns=100))
    received = []
    cl[1].set_message_handler(lambda m: received.append(m.payload))
    cl.send(0, 1, "hello", size_bytes=100)
    cl.run()
    assert received == ["hello"]
    # Receiver clock advanced at least to delivery time.
    assert cl[1].now >= 1200
    assert cl[0].messages_sent == 1
    assert cl[1].messages_received == 1


def test_cluster_messages_arrive_in_time_order():
    cl = Cluster(3)
    order = []
    cl[2].set_message_handler(lambda m: order.append(m.payload))
    cl.send(0, 2, "big", size_bytes=1_000_000)   # slow: bandwidth bound
    cl.send(1, 2, "small", size_bytes=10)        # fast
    cl.run()
    assert order == ["small", "big"]


def test_cluster_chained_sends():
    """A handler that forwards the message on — relay across 4 PEs."""
    cl = Cluster(4)
    log = []

    def make_handler(pe):
        def handler(msg):
            log.append((pe, msg.payload))
            if pe < 3:
                cl.send(pe, pe + 1, msg.payload, size_bytes=64)
        return handler

    for pe in range(1, 4):
        cl[pe].set_message_handler(make_handler(pe))
    cl.send(0, 1, "token", size_bytes=64)
    cl.run()
    assert log == [(1, "token"), (2, "token"), (3, "token")]
    assert cl[3].now > cl[1].now


def test_cluster_timers():
    cl = Cluster(1)
    fired = []
    cl.after(0, 500, fired.append, "a")
    cl.at(0, 200, fired.append, "b")
    cl.run()
    assert fired == ["b", "a"]
    assert cl[0].now >= 500


def test_cluster_bad_destination():
    cl = Cluster(2)
    with pytest.raises(ReproError):
        cl.send(0, 5, "x", 10)


def test_cluster_makespan():
    cl = Cluster(2)
    cl[0].charge(1000)
    assert cl.makespan == 1000


def test_unattached_processor_send_fails():
    p = Processor(0, get_platform("linux_x86"))
    with pytest.raises(RuntimeError):
        p.send(1, "x", 10)


def test_handler_missing_raises():
    cl = Cluster(2)
    cl.send(0, 1, "x", 10)
    with pytest.raises(RuntimeError):
        cl.run()


def test_cluster_platform_by_name():
    cl = Cluster(1, platform="solaris")
    assert cl.platform.name == "solaris"
    with pytest.raises(ReproError):
        Cluster(0)


def test_message_tracing():
    cl = Cluster(2)
    cl[1].set_message_handler(lambda m: None)
    cl.send(0, 1, "before-enable", 10, tag="x")
    cl.enable_tracing()
    cl.send(0, 1, "a", 10, tag="t1")
    cl.send(0, 1, "b", 20, tag="t2")
    cl.run()
    assert len(cl.message_trace) == 2
    assert cl.message_trace[0][2:] == (1, "t1", 10)
    text = cl.format_trace()
    assert "t1" in text and "t2" in text and "->" in text
    # Enabling twice keeps the existing trace.
    cl.enable_tracing()
    assert len(cl.message_trace) == 2


def test_format_trace_empty():
    cl = Cluster(1)
    cl.enable_tracing()
    assert "no messages" in cl.format_trace()


def test_cluster_has_a_single_send_path():
    """Exactly one function in ``sim/cluster.py`` consults the
    ``net.send`` filter channel, so every message meets the chaos
    injector on the same road and a second send path cannot return."""
    tree = ast.parse(inspect.getsource(repro.sim.cluster))
    consulting = sorted({
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and node.value == "net.send"})
    assert consulting == ["send"]
