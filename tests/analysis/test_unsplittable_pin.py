"""Structural pins: "where does a body suspend, and inside what?" is
asked once.

``repro.analysis.flow.suspends`` is a scan, not a graph: it defines two
record classes and nothing else, one function names the protected
regions, and the compiler's preflight and the FLW002 rule render the
shared ``unsplittable`` stream instead of carrying region tests or
finding texts of their own (the style of ``tests/flows/test_seam.py``).
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
SCAN = SRC / "analysis" / "flow" / "suspends.py"
COMPILE = SRC / "flows" / "compile.py"
RULE = SRC / "analysis" / "rules" / "flw002_unsplittable.py"
REGION_LABELS = {"with", "try/finally", "except"}
REGION_NODES = {"Try", "TryStar", "With", "AsyncWith", "Match"}


def _strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_the_scan_module_defines_only_its_two_records():
    tree = ast.parse(SCAN.read_text())
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    assert classes == {"SuspendPoint", "CapturedMutation"}


def test_one_function_names_the_protected_regions():
    namers = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [tree, *(c for c in tree.body if isinstance(c, ast.ClassDef))]
        for fn in (f for s in scopes for f in s.body):  # defs and methods
            if isinstance(fn, ast.FunctionDef) \
                    and REGION_LABELS <= _strings(fn):
                namers.add((path.name, fn.name))
    assert namers == {("suspends.py", "_walk")}   # suspend_points' walker


def test_the_compiler_has_no_region_test_of_its_own():
    """No ``isinstance(x, (ast.Try, ast.With, …))`` in flows/compile.py;
    its preflight iterates ``unsplittable`` instead."""
    tree = ast.parse(COMPILE.read_text())
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                and call.func.id == "isinstance":
            tested = {n.attr for n in ast.walk(call.args[1])
                      if isinstance(n, ast.Attribute)}
            assert not tested & REGION_NODES, ast.unparse(call)
    preflight = next(f for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef)
                     and f.name == "_preflight")
    assert any(isinstance(n, ast.Name) and n.id == "unsplittable"
               for n in ast.walk(preflight))


def test_the_rule_renders_the_shared_stream_without_texts_of_its_own():
    """Outside docstrings, the FLW002 module's only finding text is the
    suspending-recursion one, which needs the call graph."""
    tree = ast.parse(RULE.read_text())
    check = next(f for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and f.name == "check")
    assert any(isinstance(n, ast.Name) and n.id == "unsplittable"
               for n in ast.walk(check))
    text = " ".join(_strings(check)).lower()
    for phrase in ("inside", "protected", "non-directive", "captured",
                   "rebound", "closure"):
        assert phrase not in text, phrase
