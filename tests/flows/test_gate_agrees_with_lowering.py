"""The analysis gate and the lowering refuse the same protected regions.

``classify_function`` (the ``flowreport`` contract, FLW002's twin) and
``compile_flow``'s preflight both render
``repro.analysis.flow.suspends.unsplittable``, so a body the report
calls COMPILABLE can never reach a "cannot split a try/with/match
region" refusal inside the compiler — one small body per construct
pins that, and every shipped body the lowering accepts must split at
exactly the points the suspend scan reports.
"""

import ast
import json
import pathlib

import pytest

from repro.analysis.flow import suspend_points
from repro.flows.compile import (FlowCompileError, _Compiler,
                                 classify_function, compile_flow)

REPO = pathlib.Path(__file__).resolve().parents[2]
REGION_REFUSAL = "try/with/match"


def _with_body(mpi):
    with open("/dev/null"):
        yield from mpi.recv(0, 1)


def _with_item(mpi):
    with (yield from mpi.recv(0, 1)):
        mpi.results[mpi.rank] = 1


def _try_finally_body(mpi):
    try:
        yield from mpi.recv(0, 1)
    finally:
        mpi.results[mpi.rank] = 1


def _finally_body(mpi):
    try:
        mpi.results[mpi.rank] = 1
    finally:
        yield from mpi.recv(0, 1)


def _except_handler(mpi):
    try:
        mpi.results[mpi.rank] = 1
    except ValueError:
        yield from mpi.recv(0, 1)


def _try_except_body(mpi):
    try:
        x = yield from mpi.recv(0, 1)
    except ValueError:
        x = None
    mpi.results[mpi.rank] = x


def _try_except_else(mpi):
    try:
        x = 1
    except ValueError:
        x = None
    else:
        yield from mpi.barrier()
    mpi.results[mpi.rank] = x


def _match_subject(mpi):
    match (yield from mpi.recv(0, 1)):
        case 1:
            mpi.results[mpi.rank] = 1


def _match_arm(mpi):
    match mpi.rank:
        case 0:
            yield from mpi.barrier()
        case _:
            mpi.results[mpi.rank] = 1


def _plain_control(mpi):
    acc = 0
    for i in range(3):
        if i:
            got = yield from mpi.recv(0, 1)
            acc += got
        else:
            yield "yield"
    while acc < 0:
        yield from mpi.barrier()
    mpi.results[mpi.rank] = acc


def _two_step_helper(mpi, n):
    yield "yield"
    yield "yield"
    return n


def _delegates_to_helper(mpi):
    x = yield from _two_step_helper(mpi, 1)
    mpi.results[mpi.rank] = x


#: body -> the blocker kind the gate must name (None: compilable).
CONSTRUCTS = [
    (_with_body, "suspend-in-with"),
    (_with_item, "suspend-in-with"),
    (_try_finally_body, "suspend-in-finally"),
    (_finally_body, "suspend-in-finally"),
    (_except_handler, "suspend-under-except"),
    (_try_except_body, "suspend-in-try"),
    (_try_except_else, "suspend-in-try"),
    (_match_subject, "suspend-in-match"),
    (_match_arm, "suspend-in-match"),
    (_plain_control, None),
]


def _lowering_refuses_region(body) -> bool:
    try:
        compile_flow(body, gate=False)
    except FlowCompileError as exc:
        return REGION_REFUSAL in str(exc)
    return False


@pytest.mark.parametrize("body,kind", CONSTRUCTS,
                         ids=[b.__name__.strip("_") for b, _ in CONSTRUCTS])
def test_compilable_iff_the_lowering_does_not_refuse_a_region(body, kind):
    report = classify_function(body)
    compilable = report.classification == "COMPILABLE"
    assert compilable == (not _lowering_refuses_region(body))
    assert compilable == (kind is None)


@pytest.mark.parametrize("body,kind", [c for c in CONSTRUCTS if c[1]],
                         ids=[b.__name__.strip("_")
                              for b, k in CONSTRUCTS if k])
def test_refusal_comes_from_the_gate_with_file_and_line(body, kind):
    with pytest.raises(FlowCompileError) as exc:
        compile_flow(body)
    assert "NEEDS-REWRITE" in str(exc.value)
    (blocker,) = exc.value.blockers
    first = body.__code__.co_firstlineno
    assert blocker.kind == kind and blocker.rule == "FLW002"
    assert blocker.path == pathlib.Path(__file__).name
    assert first < blocker.line <= first + 6


def test_helper_delegation_counts_the_outer_bodys_own_suspends():
    """The cross-check compares the *top* lowering with the scan, even
    when a helper with a different suspend count was lowered first."""
    assert compile_flow(_delegates_to_helper).suspend_points == 1


def test_shipped_bodies_split_exactly_where_the_scan_says():
    report = json.loads((REPO / "results" / "flow_report.json").read_text())
    checked = set()
    for body in report["bodies"]:
        tree = ast.parse((REPO / body["path"]).read_text())
        node = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef)
                    and n.lineno == body["line"]
                    and n.name == body["qualname"].rsplit(".", 1)[-1])
        compiler = _Compiler(tree)
        try:
            compiler.compile_function(node)
        except FlowCompileError as exc:
            # Runtime coverage (no op_* primitive yet) may stop the
            # lowering; a region refusal of a reported body may not.
            assert REGION_REFUSAL not in str(exc), body
            continue
        assert compiler.lowerings[-1].n_suspends \
            == len(suspend_points(node)), body
        checked.add(body["qualname"])
    assert {"spin_program.main", "ring_program.main",
            "pingpong_program.main", "stencil_program.main"} <= checked
