"""Unit tests of the thread-to-continuation compiler's lowering.

The differential oracle (``test_differential.py``) proves compiled
output *behaves* like the generator original; these tests pin the
compiler's own contract: what it produces (state counts, frame records,
deterministic source), what it refuses (the preflight and gate
refusals, each with an actionable message), and the documented deltas
(``AttributeError`` for unset locals, compile-time closure snapshot).

The fusion pass (one state per straight-line run) is pinned by counting
the states a run actually enters, per loop iteration, with
``tests/callcount.py``.

The refusal fixtures are module-level generator functions in *this*
file: the compiler parses a function's real source file, so fixtures
must live somewhere ``inspect.getsourcefile`` can find.
"""

import re

import pytest

from repro.errors import ReproError
from repro.flows.compile import (CompiledFlow, FlowCompileError,
                                 classify_function, compile_flow)
from repro.flows.programs import (pingpong_program, ring_program,
                                  spin_program)
from repro.flows.runtime import FlowProgram, FlowWorld
from repro.flows.stencil import stencil_program
from tests.callcount import count_calls


# -- refusal fixtures (never executed, only parsed) --------------------------

def _with_suspend_body(mpi):
    with open("log") as fh:
        yield "suspend"


def _break_in_suspending_loop(mpi):
    while True:
        yield "yield"
        break


def _nested_def_body(mpi):
    def helper():
        return 1
    yield "exit"


def _lambda_body(mpi):
    f = lambda x: x + 1  # noqa: E731
    yield "exit"


def _unknown_primitive_body(mpi):
    yield from mpi.sleep(5)


def _recursive_body(mpi):
    yield from _recursive_body(mpi)


def _param_body(mpi, extra):
    yield "exit"


def _well_formed_body(mpi):
    acc = 0
    for i in range(3):
        yield "yield"
        acc += i
    mpi.results[mpi.rank] = acc
    yield "exit"


def _make_closure_body(base):
    def main(mpi):
        yield "yield"
        mpi.results[mpi.rank] = base + mpi.rank
    return main


def _exchange(mpi, peer, value):
    mpi.send(peer, value, tag="x")
    got = yield from mpi.recv(source=peer, tag="x")
    return got + 1


def _make_delegating_body(rounds):
    def main(mpi):
        acc = 0
        for i in range(rounds):
            got = yield from _exchange(mpi, mpi.rank, i)
            acc += got
        mpi.results[mpi.rank] = acc
    return main


def _stop_iteration_after_the_inner_loop(mpi):
    for i in range(2):
        for j in range(2):
            yield "yield"
        mpi.results[mpi.rank] = (i, j)
        next(iter(()))      # a StopIteration that is nobody's loop exit
    mpi.results[mpi.rank] = "fell out of the outer loop"


# -- what the compiler produces ----------------------------------------------

@pytest.mark.parametrize("factory,suspends", [
    (lambda: spin_program(4, 3), 2),       # yield + exit
    (lambda: ring_program(4, 2), 3),       # recv + yield + barrier
    (lambda: pingpong_program(4, 2), 3),   # yield + 2x recv
    (lambda: stencil_program(4), 2),       # 2x recv
])
def test_shipped_programs_compile_with_expected_suspend_counts(
        factory, suspends):
    cf = compile_flow(factory().body)
    assert isinstance(cf, CompiledFlow)
    assert cf.suspend_points == suspends
    # Every suspend point needs at least its own continuation state.
    assert cf.n_states >= cf.suspend_points
    assert callable(cf.entry)
    assert cf.qualname.endswith("main")


def test_generated_source_is_deterministic_and_labeled():
    body = spin_program(2, 2).body
    first = compile_flow(body)
    second = compile_flow(body)
    assert first.source == second.source
    assert "generated by repro.flows.compile" in first.source
    assert "__slots__" in first.source


def test_frame_record_is_slotted_with_continuation_field():
    cf = compile_flow(ring_program(3, 2).body)
    frame = cf.frame_factory()
    # The delegation-return linkage starts empty at the outermost frame.
    assert frame._ret is None
    # Documented delta vs. real generators: a local read before its
    # first assignment raises AttributeError, not UnboundLocalError.
    with pytest.raises(AttributeError):
        frame.acc
    frame.acc = 41
    assert frame.acc == 41
    # __slots__ frames admit no ad-hoc attributes (that is the whole
    # per-flow footprint argument).
    with pytest.raises(AttributeError):
        frame.not_a_local = 1


def test_compiled_flow_runs_standalone_in_a_world():
    world = FlowWorld(5)
    world.spawn("compiled", FlowProgram("well-formed", 5, _well_formed_body))
    world.run()
    assert world.finished == 5
    assert world.results == {r: 0 + 1 + 2 for r in range(5)}


def test_closure_values_are_snapshot_at_compile_time():
    world = FlowWorld(3)
    world.spawn("compiled", FlowProgram("closure", 3,
                                        _make_closure_body(100)))
    world.run()
    assert world.results == {0: 100, 1: 101, 2: 102}


# -- fusion: one state per straight-line run ---------------------------------

def _states_entered(program):
    """``({state name: times entered}, results)`` of one compiled run."""
    names = re.findall(r"^def (_f\d+_s\d+)\(",
                       compile_flow(program.body).source, re.M)
    world = FlowWorld(program.ranks)
    world.spawn("compiled", program)
    _, calls = count_calls(world.run)
    return {n: calls.of(n) for n in names}, world.results


@pytest.mark.parametrize("factory,ranks,per_iteration", [
    # One rank receives what it just sent itself, so no receive parks:
    # the count is the loop's own shape (unfused: 5, 7, 2, 3, 6).
    (lambda n: ring_program(1, n, 1), 1, 2),
    (lambda n: stencil_program(1, cells=3, steps=n), 1, 3),
    (lambda n: spin_program(1, n), 1, 1),
    (lambda n: pingpong_program(1, n, 1), 1, 1),     # the unpaired rank
    (lambda n: FlowProgram("delegating", 1, _make_delegating_body(n)),
     1, 4),
    # A pair: each round parks one receive, whose retry state re-runs
    # the match (unfused: 6.5 per rank).
    (lambda n: pingpong_program(2, n, 1), 2, 3),
], ids=["ring", "stencil", "spin", "pingpong-unpaired", "delegating",
        "pingpong-pair"])
def test_states_entered_per_loop_iteration(factory, ranks, per_iteration):
    short, _ = _states_entered(factory(3))
    long, results = _states_entered(factory(5))
    assert len(results) == ranks
    extra = sum(long.values()) - sum(short.values())
    assert extra == per_iteration * 2 * ranks


def test_a_retry_state_survives_fusion():
    """``op_recv``'s call is duplicated at its goto site, and the state
    stays behind as the target a parked receive resumes at."""
    program = ring_program(4, 3, seed=1)
    source = compile_flow(program.body).source
    (retry,) = set(re.findall(r"op_recv\(_f, (_f0_s\d+),", source))
    assert source.count(f"op_recv(_f, {retry},") == 2
    assert f"def {retry}(mpi, _f):\n    return mpi.op_recv(" in source
    entered, results = _states_entered(program)
    assert entered[retry] > 0                # some receive did park
    assert len(results) == 4


def test_fusion_leaves_no_goto_to_a_lone_primitive():
    """No surviving goto lands on a state that is only
    ``return mpi.op_*(...)``, and no ``try:`` was generated for a
    statement to be fused into."""
    for program in (ring_program(3, 2), stencil_program(3),
                    pingpong_program(3, 2), spin_program(2, 2)):
        cf = compile_flow(program.body)
        assert "try:" not in cf.source
        lone = set(re.findall(
            r"^def (_f0_s\d+)\(mpi, _f\):\n    return mpi\.op_", cf.source,
            re.M))
        gotos = set(re.findall(r"return \((_f0_s\d+), _f\)", cf.source))
        assert gotos and not gotos & lone


def test_a_stop_iteration_of_the_bodys_own_is_not_a_loop_exit():
    """Fused into the outer header's state, the statement after the
    inner loop still raises through ``run()`` — nothing reads it as the
    outer ``for`` running dry.  (The thread form differs as PEP 479 says:
    the generator turns it into ``RuntimeError``.)"""
    world = FlowWorld(1)
    world.spawn("compiled", FlowProgram(
        "stop", 1, _stop_iteration_after_the_inner_loop))
    with pytest.raises(StopIteration):
        world.run()
    assert world.results == {0: (0, 1)}
    world = FlowWorld(1)
    world.spawn("thread", FlowProgram(
        "stop", 1, _stop_iteration_after_the_inner_loop))
    with pytest.raises(RuntimeError, match="StopIteration"):
        world.run()
    assert world.results == {0: (0, 1)}


# -- the analysis gate -------------------------------------------------------

def test_gate_passes_a_well_formed_body_in_this_file():
    report = classify_function(_well_formed_body)
    assert report.classification == "COMPILABLE"
    cf = compile_flow(_well_formed_body)   # gate on
    assert cf.suspend_points == 2


def test_gate_refuses_needs_rewrite_with_blockers():
    with pytest.raises(FlowCompileError) as exc:
        compile_flow(_with_suspend_body)
    assert "NEEDS-REWRITE" in str(exc.value)
    assert exc.value.blockers
    assert all(b.rule == "FLW002" for b in exc.value.blockers)
    assert any(b.kind == "suspend-in-with" for b in exc.value.blockers)


def test_gate_errors_are_repro_errors():
    # Callers catching the repo-wide error type see compiler refusals.
    assert issubclass(FlowCompileError, ReproError)


# -- preflight refusals (gate off: the transform's own limits) ---------------

@pytest.mark.parametrize("body,needle", [
    (_with_suspend_body, "try/with/match"),
    (_break_in_suspending_loop, "break/continue"),
    (_nested_def_body, "nested def"),
    (_lambda_body, "lambda"),
    (_unknown_primitive_body, "no continuation primitive"),
    (_recursive_body, "recursive delegation"),
])
def test_preflight_refusals_name_the_construct(body, needle):
    with pytest.raises(FlowCompileError) as exc:
        compile_flow(body, gate=False)
    assert needle in str(exc.value), str(exc.value)


def test_top_level_body_must_take_only_its_receiver():
    with pytest.raises(FlowCompileError) as exc:
        compile_flow(_param_body, gate=False)
    assert "receiver" in str(exc.value)
