"""``docs/claims.md`` cites only tier-1 tests.

Every row's "Verified by" cell must name at least one test, as a bare
``test_*`` id or a ``tests/…`` path (optionally ``::test_*``), and every
test it names must exist under ``tests/``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
ROW = re.compile(r"^\| (\d+) \|.*\| ([^|]*) \|$")


def defined_tests():
    """``{path relative to the root: {test function names}}``."""
    out = {}
    for path in (ROOT / "tests").rglob("*.py"):
        out[path.relative_to(ROOT).as_posix()] = {
            node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_")}
    return out


def unverified(ledger, tests):
    """``(row, reason)`` for each row whose citations fail."""
    every = set().union(*tests.values())
    bad = []
    for line in ledger.splitlines():
        match = ROW.match(line)
        if not match:
            continue
        row, cell = match.groups()
        cited = 0
        for token in re.findall(r"`([^`]+)`", cell):
            path, _, name = token.partition("::")
            if path.startswith("tests/"):
                cited += 1
                if path not in tests or (name and name not in tests[path]):
                    bad.append((row, f"no such test: {token}"))
            elif re.fullmatch(r"test_\w+", token):
                cited += 1
                if token not in every:
                    bad.append((row, f"no such test: {token}"))
            elif "test_" in token:
                bad.append((row, f"not a tier-1 test: {token}"))
        if not cited:
            bad.append((row, "names no test"))
    return bad


def test_every_claim_is_verified_by_a_tier1_test():
    ledger = (ROOT / "docs" / "claims.md").read_text()
    assert len([ln for ln in ledger.splitlines() if ROW.match(ln)]) == 30
    assert unverified(ledger, defined_tests()) == []


def test_the_ledger_check_rejects_what_it_should():
    tests = {"tests/a/test_x.py": {"test_real"}}
    ledger = "\n".join([
        "| 1 | c | i | `test_real`, `tests/a/test_x.py::test_real` |",
        "| 2 | c | i | `benchmarks/test_x.py::test_gone` |",
        "| 3 | c | i | an ablation, in prose |",
        "| 4 | c | i | `test_missing`, `tests/a/test_y.py` |",
    ])
    assert unverified(ledger, tests) == [
        ("2", "not a tier-1 test: benchmarks/test_x.py::test_gone"),
        ("2", "names no test"),
        ("3", "names no test"),
        ("4", "no such test: test_missing"),
        ("4", "no such test: tests/a/test_y.py"),
    ]
