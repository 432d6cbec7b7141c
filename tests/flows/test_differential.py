"""The thread-vs-compiled differential oracle (multi-seed, byte-level).

The compiler's whole claim is that it changes the *mechanism*, never
the *computation*: a generator body and its compiled translation must
produce byte-identical kernel traces — same events, same order, same
sequence numbers, same dispatch sites — and identical results, across
seeds and across every program shape we ship (messaging ring,
conditional ping-pong, barrier, stencil halo exchange, pure spin) plus
bodies that delegate to sibling helper generators.

Byte identity is deliberately stronger than result equality: it pins
the synchronous-receive optimization (an already-queued message must
not cost a kernel event in either form), post ordering, and flow
labels, so a compiler regression cannot hide behind a still-correct
answer.
"""

import random

import pytest

from repro.charm import CharmRuntime
from repro.flows import (CompiledContinuationFlow, UserThreadFlow,
                         WORKLOAD_MECHANISMS)
from repro.flows.programs import pingpong_program, ring_program, spin_program
from repro.flows.runtime import FlowProgram
from repro.flows.stencil import relax, stencil_program
from repro.sim import Cluster, Processor, get_platform
from repro.workloads.stencil_chare import (start_stencil_chares,
                                           stencil_chare_results)

SEEDS = (7, 11, 13)


# -- helper-delegating bodies (module level: the compiler resolves a
# delegation target by name in the body's own source file) --------------

def _swap_with(mpi, peer, value):
    mpi.send(peer, value, tag="swap")
    got = yield from mpi.recv(source=peer, tag="swap")
    return got


def _settle(mpi, rounds):
    for _ in range(rounds):
        yield "yield"
    yield from mpi.barrier()


def _make_delegating_body(rounds, seed):
    rng = random.Random(seed)
    values = [rng.randrange(100) for _ in range(64)]

    def main(mpi):
        peer = mpi.rank ^ 1
        acc = 0
        for i in range(rounds):
            if peer < mpi.nranks:
                got = yield from _swap_with(mpi, peer,
                                            values[mpi.rank] + i)
                acc += got
            yield from _settle(mpi, mpi.rank % 3)
        mpi.results[mpi.rank] = acc

    return main


def _make_wildcard_body(seed):
    """Rank 0 drains every other rank's three messages with all three
    wildcard shapes; the senders interleave by seeded yields, so queued
    messages of other tags and sources are skipped in both forms."""
    rng = random.Random(seed)
    delays = [rng.randrange(3) for _ in range(64)]

    def main(mpi):
        if mpi.rank == 0:
            got = []
            for _ in range(mpi.nranks - 1):
                msg = yield from mpi.recv(source=None, tag="b")
                got.append(msg)
            for src in range(mpi.nranks - 1, 0, -1):
                msg = yield from mpi.recv(source=src)
                got.append(msg)
            for _ in range(mpi.nranks - 1):
                msg = yield from mpi.recv()
                got.append(msg)
            mpi.results[0] = got
        else:
            mpi.send(0, ("a", mpi.rank), tag="a")
            for _ in range(delays[mpi.rank]):
                yield "yield"
            mpi.send(0, ("b", mpi.rank), tag="b")
            mpi.send(0, ("c", mpi.rank), tag=mpi.rank)
            mpi.results[mpi.rank] = delays[mpi.rank]

    return main


def make_proc(platform="linux_x86"):
    return Processor(0, get_platform(platform))


def run_form(mechanism_cls, program):
    return mechanism_cls(make_proc()).run_workload(
        program, trace=True, real_flows=False)


def assert_byte_identical(factory):
    """Run ``factory()`` under thread and compiled forms; compare."""
    thread = run_form(UserThreadFlow, factory())
    compiled = run_form(CompiledContinuationFlow, factory())
    assert thread.trace_bytes() == compiled.trace_bytes()
    assert thread.results == compiled.results
    assert thread.dispatches == compiled.dispatches
    assert thread.kernel_events == compiled.kernel_events
    # The comparison must not be vacuous.
    assert len(thread.trace) > factory().ranks
    assert len(thread.results) == factory().ranks
    return thread, compiled


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_traces_byte_identical_across_seeds(seed):
    # recv + barrier + yield + a suspending loop: every primitive.
    assert_byte_identical(lambda: ring_program(5, 4, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_pingpong_traces_byte_identical_across_seeds(seed):
    # Odd rank count: the unpaired rank exercises the conditional
    # spin branch while the pairs exercise both recv paths.
    assert_byte_identical(lambda: pingpong_program(5, 3, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_stencil_traces_byte_identical_across_seeds(seed):
    assert_byte_identical(
        lambda: stencil_program(4, cells=6, steps=3, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_helper_delegation_traces_byte_identical_across_seeds(seed):
    # A value-returning helper around a receive and a helper with its
    # own loop and barrier: continuation hand-off frames in both
    # directions, called from inside a suspending loop.
    thread, _ = assert_byte_identical(lambda: FlowProgram(
        "delegating", 5, _make_delegating_body(3, seed)))
    assert any(thread.results.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_wildcard_receive_traces_byte_identical_across_seeds(seed):
    # recv(), recv(source=None, tag=t) and recv(source=s): the compiled
    # receive's wildcard branch and its None -> ANY mapping at entry.
    thread, _ = assert_byte_identical(lambda: FlowProgram(
        "wildcard", 5, _make_wildcard_body(seed)))
    got = thread.results[0]
    assert sorted(got[:4]) == [("b", r) for r in range(1, 5)]
    assert got[4:8] == [("a", r) for r in range(4, 0, -1)]
    assert sorted(got[8:]) == [("c", r) for r in range(1, 5)]


def test_spin_traces_byte_identical():
    thread, compiled = assert_byte_identical(lambda: spin_program(8, 5))
    # Pure switch load: one dispatch per seed + one per yield round.
    assert thread.dispatches == 8 * (5 + 1)


def test_trace_labels_are_the_shared_dispatch_site():
    _, compiled = assert_byte_identical(lambda: ring_program(3, 2, seed=7))
    sites = {e["site"] for e in compiled.trace}
    # Both forms dispatch through FlowWorld._resume only — a compiled
    # run must not leak its own dispatch sites into the trace.
    assert sites == {"FlowWorld._resume"}
    assert {e["category"] for e in compiled.trace} == {"flow.resume"}


def test_synchronous_receive_costs_no_kernel_event():
    """A message already queued at recv time continues inline in both
    forms: the ring (send-before-recv) must cost exactly the seed
    events plus one per explicit yield and one barrier release."""
    ranks, rounds = 4, 3
    thread = run_form(UserThreadFlow, ring_program(ranks, rounds, seed=7))
    compiled = run_form(CompiledContinuationFlow,
                        ring_program(ranks, rounds, seed=7))
    # seed batch + (recv resume + yield) per round + barrier release.
    # The recv resume only posts when the message was NOT yet queued;
    # equality between forms is the invariant, the ceiling is sanity.
    assert thread.kernel_events == compiled.kernel_events
    assert compiled.kernel_events <= ranks * (2 * rounds + 2)


def test_three_forms_agree_on_stencil_numerics():
    """Thread, compiled, hybrid and event-object forms share relax():
    results must be float-exact equal, not approximately equal.  The
    hand-written event form is a chare, so its arm runs on the chare
    runtime."""
    results = {}
    for label, cls in sorted(WORKLOAD_MECHANISMS.items()):
        program = stencil_program(5, cells=8, steps=4, seed=11)
        results[label] = cls(make_proc()).run_workload(
            program, real_flows=False).results
    rt = CharmRuntime(Cluster(1))
    proxy = start_stencil_chares(rt, 5, cells=8, steps=4, seed=11)
    rt.run()
    results["event"] = stencil_chare_results(rt, proxy)
    reference = results["cth"]
    assert len(reference) == 5
    assert set(results) == {"cth", "n:m", "compiled", "event"}
    for label, got in results.items():
        assert got == reference, label


def test_three_forms_agree_on_ring_results():
    runs = {
        label: cls(make_proc()).run_workload(
            ring_program(6, 3, seed=13), real_flows=False)
        for label, cls in WORKLOAD_MECHANISMS.items()
    }
    reference = runs["cth"].results
    assert len(reference) == 6
    for label, run in runs.items():
        assert run.results == reference, label


def _relax_loop(data, below, above):
    """``relax`` as it was written before it became one comprehension."""
    out = []
    for i in range(len(data)):
        left = below if i == 0 else data[i - 1]
        right = above if i == len(data) - 1 else data[i + 1]
        out.append((left + data[i] + right) / 3.0)
    return out


@pytest.mark.parametrize("cells", range(13))
def test_relax_is_float_exact_with_the_indexed_loop(cells):
    rng = random.Random(cells)
    for _ in range(20):
        data = [rng.uniform(-100.0, 100.0) for _ in range(cells)]
        below, above = rng.uniform(-100.0, 100.0), rng.uniform(0.0, 1e-9)
        got = relax(data, below, above)
        assert got == _relax_loop(data, below, above)
        assert len(got) == cells
