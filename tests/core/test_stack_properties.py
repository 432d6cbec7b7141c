"""Property tests: stack isolation and scheduler liveness invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.isomalloc import IsomallocArena
from repro.core.stacks import make_stack_manager
from repro.core.thread import ThreadState
from repro.sim import Cluster, Processor, get_platform
from tests.core.conftest import make_cluster

STACK = 8 * 1024


def build_manager(technique):
    proc = Processor(0, get_platform("linux_x86"))
    arena = IsomallocArena(proc.layout, 1, slot_bytes=64 * 1024)
    return make_stack_manager(technique, proc.space, proc.profile, STACK,
                              arena)


@given(technique=st.sampled_from(["isomalloc", "stack_copy", "memory_alias"]),
       script=st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                 st.integers(min_value=0, max_value=60),
                                 st.binary(min_size=1, max_size=24)),
                       min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_stack_contents_isolated_under_random_switching(technique, script):
    """Whatever the interleaving of activations and writes, each thread's
    live-region stack data stays exactly what *it* wrote."""
    mgr = build_manager(technique)
    recs = [mgr.create_stack() for _ in range(4)]
    for r in recs:
        r.consume(256)
    shadow = [bytearray(256) for _ in range(4)]
    active = None
    for tid, off, data in script:
        rec = recs[tid]
        off = off % (256 - len(data))
        if not mgr.concurrent_active:
            if active is not None and active is not rec:
                mgr.switch_out(active)
                active = None
            if active is None:
                mgr.switch_in(rec)
                active = rec
        mgr.stack_write(rec, rec.size - 256 + off, data)
        shadow[tid][off:off + len(data)] = data
    if active is not None:
        mgr.switch_out(active)
    for tid, rec in enumerate(recs):
        got = mgr.stack_read(rec, rec.size - 256, 256)
        assert got == bytes(shadow[tid]), f"thread {tid} corrupted"


@given(ops=st.lists(st.sampled_from(["spawn", "awaken_all", "run_some"]),
                    min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_scheduler_never_loses_threads(ops):
    """Under random create/awaken/run interleavings every thread ends in a
    well-defined state and none disappears."""
    cl, scheds, _, _ = make_cluster(1, slot_bytes=64 * 1024,
                                    stack_bytes=4 * 1024)
    sched = scheds[0]
    threads = []

    def body(th):
        yield "yield"
        yield "suspend"

    for op in ops:
        if op == "spawn":
            threads.append(sched.create(body))
        elif op == "awaken_all":
            for t in threads:
                if t.state is ThreadState.SUSPENDED:
                    sched.awaken(t)
        else:
            sched.run(max_switches=3)
    # Drain completely.
    for _ in range(len(threads) + 1):
        sched.run()
        for t in threads:
            if t.state is ThreadState.SUSPENDED:
                sched.awaken(t)
    sched.run()
    assert all(t.state is ThreadState.FINISHED for t in threads)
    assert sched.threads_finished == len(threads)
    assert sched.kernel.empty
    assert not sched.threads
