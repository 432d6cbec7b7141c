"""Tests for processors, kernel model, network, and cluster DES."""

import ast
import hashlib
import inspect

import pytest

import repro.sim.cluster
from repro.ampi import AmpiRuntime
from repro.balance.strategies import GreedyLB
from repro.errors import (CommError, ProcessLimitExceeded, ReproError,
                          ThreadLimitExceeded)
from repro.kernel import KernelTracer
from repro.sim import Cluster, Message, Network, get_platform
from repro.sim.processor import KernelModel, Processor
from repro.workloads.btmz import BTMZConfig, make_btmz_main


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
    cl[1].register("", lambda m: received.append(m.payload))
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
    cl[2].register("", lambda m: order.append(m.payload))
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
        cl[pe].register("", make_handler(pe))
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


def test_handler_missing_raises():
    cl = Cluster(2)
    cl.send(0, 1, "x", 10)
    with pytest.raises(CommError, match=r"no handler for tag '' on "
                                        r"processor 1 \(registered: \[\]\)"):
        cl.run()


def test_cluster_platform_by_name():
    cl = Cluster(1, platform="solaris")
    assert cl.platform.name == "solaris"
    with pytest.raises(ReproError):
        Cluster(0)


def _send_line(msg):
    return repr((msg.send_time, msg.src, msg.dst, msg.tag,
                 msg.size_bytes)).encode() + b"\n"


def test_the_send_digest_covers_exactly_the_sends_after_enable_tracing():
    cl = Cluster(2)
    for proc in cl.processors:
        for tag in ("x", "t1", "", "t3"):
            proc.register(tag, lambda m: None)
    cl.send(0, 1, "before-enable", 10, tag="x")
    assert cl.send_digest is None
    cl.enable_tracing()
    sent = [cl.send(0, 1, "a", 10, tag="t1"), cl.send(1, 0, "b", 20)]

    def refuse(arrivals, msg):
        sent.append(msg)
        raise CommError("refused by a later filter")
    cl.queue.hooks.subscribe("net.send", refuse)
    with pytest.raises(CommError):
        cl.send(0, 1, "c", 30, tag="t3")
    cl.queue.hooks.unsubscribe("net.send", refuse)
    cl.run()
    # The refused send is hashed too: the digest runs before the filter.
    assert [(m.src, m.dst, m.tag, m.size_bytes) for m in sent] == \
        [(0, 1, "t1", 10), (1, 0, "", 20), (0, 1, "t3", 30)]
    want = hashlib.sha256(b"".join(map(_send_line, sent)))
    assert cl.send_digest.hexdigest() == want.hexdigest()


def test_enabling_tracing_twice_subscribes_once():
    cl = Cluster(2)
    cl[1].register("t1", lambda m: None)
    cl.enable_tracing()
    digest = cl.send_digest
    cl.enable_tracing()
    assert cl.send_digest is digest
    msg = cl.send(0, 1, "a", 10, tag="t1")
    assert digest.hexdigest() == hashlib.sha256(_send_line(msg)).hexdigest()


def test_cluster_has_a_single_send_path():
    """Exactly one function in ``sim/cluster.py`` consults the
    ``net.send`` filter channel (``hooks.has``/``hooks.filter``), so
    every message meets the chaos injector on the same road and a second
    send path cannot return; the one other function naming the channel
    subscribes the send digest to it."""
    tree = ast.parse(inspect.getsource(repro.sim.cluster))
    naming = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and any(isinstance(a, ast.Constant)
                                and a.value == "net.send"
                                for a in node.args):
                    naming.setdefault(node.func.attr, set()).add(fn.name)
    assert naming == {"has": {"send"}, "filter": {"send"},
                      "subscribe": {"enable_tracing"}}


# -- refusals on the send road ----------------------------------------------

def test_cluster_bad_source():
    """A negative ``src`` used to wrap: PE n-1 was charged and counted
    while the Message said ``src=-1``."""
    cl = Cluster(2)
    for src in (-1, 2):
        with pytest.raises(ReproError, match=f"bad source processor {src}"):
            cl.send(src, 0, "x", 10)
    assert [p.messages_sent for p in cl.processors] == [0, 0]
    assert cl.makespan == 0.0


def test_cluster_refuses_negative_size():
    """A negative size priced the wire negative: the arrival overtook
    earlier traffic and ``bytes_sent`` went below zero."""
    cl = Cluster(2)
    with pytest.raises(ReproError, match=r"-1000000000 \(0->1, tag='t'\)"):
        cl.send(0, 1, "x", -10**9, tag="t")
    assert cl[0].bytes_sent == 0 and cl.queue.empty


@pytest.mark.parametrize("field, value", [
    ("bytes_per_ns", 0.0), ("bytes_per_ns", -1.0), ("latency_ns", -1.0),
    ("per_message_cpu_ns", -1.0), ("per_hop_ns", -1.0)])
def test_network_refuses_degenerate_parameters(field, value):
    """``bytes_per_ns=0.0`` used to construct and die with a bare
    ZeroDivisionError at the first send."""
    with pytest.raises(ReproError, match=field):
        Network(**{field: value})


def test_deliver_charges_receive_overhead_only_when_attached():
    cl = Cluster(2, network=Network(per_message_cpu_ns=100))
    detached = Processor(0, get_platform("linux_x86"))
    for proc in (cl[1], detached):
        proc.register("", lambda m: None)
        proc.deliver(Message(0, proc.id, None, 8), 1000.0)
    assert (cl[1].busy_ns, cl[1].now) == (100.0, 1100.0)
    assert (detached.busy_ns, detached.now) == (0.0, 1000.0)


# -- the unsubscribed branch of send against the subscribed one -------------

def _traced_ampi_run(tmp_path, name, subscriber=None):
    cl = Cluster(4, platform="tungsten_xeon")
    if subscriber is not None:
        cl.queue.hooks.subscribe("net.send", subscriber)
    tracer = KernelTracer().attach(cl.queue)
    msg_ids = []
    cl.queue.hooks.subscribe(
        "on_dispatch_begin",
        lambda kernel, ev: msg_ids.extend(a.msg_id for a in ev.args
                                          if isinstance(a, Message)))
    rt = AmpiRuntime(cl, 8, make_btmz_main(BTMZConfig("A", 8, 4,
                                                      iterations=3)),
                     strategy=GreedyLB(), slot_bytes=256 * 1024,
                     stack_bytes=8 * 1024)
    rt.run()
    path = tmp_path / name
    tracer.dump(str(path))
    counters = [(p.messages_sent, p.bytes_sent, p.busy_ns, p.now)
                for p in cl.processors]
    return path.read_bytes(), msg_ids, counters


def test_identity_net_send_subscriber_changes_nothing(tmp_path):
    """The unsubscribed branch posts what the filter channel would
    have: an identity subscriber takes the other branch and must
    reproduce the run exactly."""
    bare = _traced_ampi_run(tmp_path, "bare.jsonl")
    filtered = _traced_ampi_run(tmp_path, "filtered.jsonl",
                                lambda arrivals, msg: arrivals)
    assert len(bare[1]) > 20 and b'"net.ampi"' in bare[0]
    assert filtered == bare


def test_net_send_subscriber_still_drops_and_duplicates():
    cl = Cluster(2)
    got = []
    cl[1].register("", lambda m: got.append(m.payload))
    verdicts = {"drop": lambda arrivals: [],
                "twice": lambda arrivals: arrivals + [arrivals[0] + 5.0],
                "past": lambda arrivals: [-1.0]}
    cl.queue.hooks.subscribe(
        "net.send", lambda arrivals, msg: verdicts[msg.payload](arrivals))
    for payload in ("drop", "twice", "past"):
        cl.send(0, 1, payload, 10)
    cl.run()
    assert sorted(got) == ["past", "twice", "twice"]
    assert cl[0].messages_sent == 3 and cl[1].messages_received == 3
