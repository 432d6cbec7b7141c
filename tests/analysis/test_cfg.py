"""Unit tests for the suspend scan (repro.analysis.flow.suspends).

The file keeps the name it had when the module was ``flow/cfg.py`` so
the surviving tests keep their ids; the graph tests went with the graph.
"""

import ast
import textwrap

from repro.analysis.flow.suspends import (
    captured_mutations,
    classify_yield,
    suspend_points,
    unsplittable,
)


def func_node(src, name="f"):
    tree = ast.parse(textwrap.dedent(src))
    return next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)


def points_of(src, name="f"):
    return suspend_points(func_node(src, name))


# -- yield classification ----------------------------------------------------

def test_classify_yield_directives():
    mod = ast.parse(
        'def f(th):\n'
        '    yield "yield"\n'
        '    yield "suspend"\n'
        '    yield ("io", 500)\n'
        '    yield 42\n'
        '    yield\n'
        '    yield from g()\n')
    yields = [n for n in ast.walk(mod)
              if isinstance(n, (ast.Yield, ast.YieldFrom))]
    kinds = [classify_yield(y) for y in yields]
    assert kinds == [("directive", "yield"), ("directive", "suspend"),
                     ("directive", "io"), ("bare", None), ("bare", None),
                     ("delegate", None)]


# -- the scan ---------------------------------------------------------------

def test_directive_suspend_is_recorded_unprotected():
    (sp,) = points_of('''
        def f(th):
            a = 1
            yield "suspend"
            b = 2
    ''')
    assert sp.kind == "directive" and sp.directive == "suspend"
    assert (sp.line, sp.protected) == (4, ())


def test_suspends_come_in_execution_site_order():
    """Headers before blocks, blocks in source order, loops once."""
    points = points_of('''
        def f(mpi):
            while (yield from mpi.recv()):
                for i in range(3):
                    if i == 2:
                        continue
                    yield "yield"
                else:
                    yield "suspend"
            yield "exit"
    ''')
    assert [(sp.line, sp.directive or sp.target) for sp in points] == [
        (3, "mpi.recv"), (7, "yield"), (9, "suspend"), (10, "exit")]
    assert all(sp.protected == () for sp in points)


def test_suspend_in_loop_counted_once():
    """Regression: compound-statement headers must not rescan bodies."""
    points = points_of('''
        def f(mpi):
            for i in range(3):
                if i:
                    yield from mpi.recv(i)
    ''')
    (sp,) = points
    assert sp.kind == "delegate" and sp.target == "mpi.recv"


# -- protected regions -------------------------------------------------------

def test_try_finally_marks_suspend_protected():
    points = points_of('''
        def f(th):
            try:
                yield "suspend"
            finally:
                pass
    ''')
    (sp,) = points
    assert sp.protected == ("try/finally",)


def test_plain_try_except_body_is_protected():
    """The handlers' reach spans the cut: the lowering refuses it, so
    the scan must too (body and ``else:`` alike)."""
    points = points_of('''
        def f(th):
            try:
                yield "suspend"
            except ValueError:
                pass
            else:
                yield "yield"
    ''')
    assert [sp.protected for sp in points] == [("try",), ("try",)]


def test_except_handler_suspend_is_protected():
    points = points_of('''
        def f(th):
            try:
                pass
            except ValueError:
                yield "suspend"
    ''')
    (sp,) = points
    assert sp.protected == ("except",)


def test_with_marks_suspend_protected_and_nesting_order():
    points = points_of('''
        def f(th):
            with lock():
                try:
                    yield "suspend"
                finally:
                    pass
            yield "yield"
    ''')
    protected = [sp for sp in points if sp.protected]
    clean = [sp for sp in points if not sp.protected]
    assert len(protected) == 1 and len(clean) == 1
    # Outermost-first tuple: with encloses the try/finally.
    assert protected[0].protected == ("with", "try/finally")


def test_finally_body_suspend_is_protected():
    points = points_of('''
        def f(th):
            try:
                pass
            finally:
                yield "suspend"
    ''')
    (sp,) = points
    assert sp.protected == ("try/finally",)


def test_with_item_and_match_are_regions_from_the_header_down():
    points = points_of('''
        def f(mpi):
            with (yield from mpi.recv()) as lock:
                pass
            match (yield from mpi.recv()):
                case 1 if (yield "yield"):
                    yield "suspend"
    ''')
    assert [sp.protected for sp in points] == [
        ("with",), ("match",), ("match",), ("match",)]


def test_try_with_handlers_and_finally_keeps_one_cleanup_region():
    points = points_of('''
        def f(th):
            try:
                yield "yield"
            except ValueError:
                yield "suspend"
            finally:
                pass
    ''')
    assert [sp.protected for sp in points] == [
        ("try/finally",), ("try/finally", "except")]


# -- the one definition of "unsplittable" ------------------------------------

def test_unsplittable_names_kind_line_and_regions():
    found = list(unsplittable(func_node('''
        def f(th):
            with lock():
                try:
                    yield "suspend"
                except ValueError:
                    yield 42
            match th.rank:
                case 0:
                    yield "yield"
            yield "yield"
    ''')))
    assert [(kind, line) for kind, line, _ in found] == [
        ("suspend-in-try", 5), ("suspend-under-except", 7),
        ("bare-yield", 7), ("suspend-in-match", 10)]
    assert "with > try" in found[0][2] and "with > except" in found[1][2]


def test_unsplittable_reports_captures_and_honours_a_points_subset():
    node = func_node('''
        def f(mpi):
            count = 0
            peek = lambda: count
            with lock():
                yield from mpi.size()
            count = 1
    ''')
    assert [k for k, _, _ in unsplittable(node)] == [
        "suspend-in-with", "closure-across-suspend"]
    # The classifier drops delegations it proved never suspend.
    assert [k for k, _, _ in unsplittable(node, points=[])] == [
        "closure-across-suspend"]


def test_clean_body_has_nothing_unsplittable():
    assert list(unsplittable(func_node('''
        def f(mpi):
            for i in range(3):
                if i:
                    got = yield from mpi.recv(i)
            yield "exit"
    '''))) == []


# -- nested scopes -----------------------------------------------------------

def test_nested_def_and_lambda_yields_are_not_counted():
    points = points_of('''
        def f(th):
            def inner(th2):
                yield "suspend"
            g = lambda x: x + 1
            total = sum(x for x in range(3))
            yield "yield"
    ''')
    (sp,) = points
    assert sp.directive == "yield"


def test_nested_yield_from_chain_targets():
    points = points_of('''
        def f(mpi):
            yield from step_one(mpi)
            yield from mpi.barrier()
            yield from helpers.finish(mpi)
    ''')
    assert [sp.target for sp in points if sp.kind == "delegate"] == [
        "step_one", "mpi.barrier", "helpers.finish"]


# -- closure captures --------------------------------------------------------

def test_captured_mutation_across_suspend_detected():
    muts = captured_mutations(func_node('''
        def f(th):
            count = 0
            def peek():
                return count
            yield "suspend"
            count = count + 1
    '''))
    (m,) = muts
    assert m.name == "count"
    assert m.store_line > m.suspend_line


def test_capture_without_rebinding_is_clean():
    assert captured_mutations(func_node('''
        def f(th):
            count = 0
            def peek():
                return count
            yield "suspend"
            return peek
    ''')) == []


def test_rebinding_without_capture_is_clean():
    assert captured_mutations(func_node('''
        def f(th):
            count = 0
            yield "suspend"
            count = count + 1
    ''')) == []


def test_parameter_capture_rebound_after_suspend_detected():
    muts = captured_mutations(func_node('''
        def f(th, size):
            report = lambda: size
            yield "suspend"
            size = size * 2
            return report
    '''))
    assert [m.name for m in muts] == ["size"]
