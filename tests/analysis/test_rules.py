"""The shipped rules against their fixture modules.

Each fixture marks every line the analyzer must flag with
``# expect: RULE[, RULE]``; the test asserts the *exact* set of
(line, rule) pairs — so a rule that under-reports (misses a break) or
over-reports (flags the clean cases) both fail.  Each fixture also
carries one suppressed case, which must surface as ``suppressed=True``
without counting as an active finding.
"""

import os
import re

import pytest

from repro.analysis import all_rules, analyze_file, analyze_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")


def expected_findings(path):
    out = []
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            m = _EXPECT_RE.search(text)
            if m:
                for rid in m.group(1).split(","):
                    out.append((lineno, rid.strip()))
    return sorted(out)


FIXTURE_CASES = [
    ("flw001_lost_delegation.py", "FLW001"),
    ("flw002_unsplittable.py", "FLW002"),
    ("flw003_dead_surface.py", "FLW003"),
    ("mig001_pup.py", "MIG001"),
    ("mig002_globals.py", "MIG002"),
    ("mig003_state.py", "MIG003"),
    ("mig004_sdag.py", "MIG004"),
    ("mig005_isomalloc.py", "MIG005"),
]


@pytest.mark.parametrize("fixture,rule_id", FIXTURE_CASES)
def test_fixture_findings_exact(fixture, rule_id):
    path = os.path.join(FIXTURES, fixture)
    expected = expected_findings(path)
    assert expected, f"{fixture} must mark its expected findings"
    findings = analyze_file(path)
    active = sorted((f.line, f.rule) for f in findings if not f.suppressed)
    assert active == expected
    # Every finding is pinned to the fixture file, with the right rule id.
    assert all(f.path == path for f in findings)
    assert any(f.rule == rule_id for f in findings if not f.suppressed)


@pytest.mark.parametrize("fixture,rule_id", FIXTURE_CASES)
def test_fixture_suppressed_case(fixture, rule_id):
    """Each fixture's suppressed example is reported but not active."""
    findings = analyze_file(os.path.join(FIXTURES, fixture))
    suppressed = [f for f in findings if f.suppressed]
    assert suppressed, f"{fixture} must exercise the suppression syntax"
    assert any(f.rule == rule_id for f in suppressed)


def test_every_shipped_rule_has_a_fixture():
    covered = {rule_id for _, rule_id in FIXTURE_CASES}
    assert {r.id for r in all_rules()} == covered


# -- framework behavior ------------------------------------------------------

def test_suppression_on_standalone_comment_line_covers_next_line():
    src = (
        "registry = {}\n"
        "def body(th):\n"
        "    # migralint: disable=MIG002\n"
        "    registry['x'] = 1\n"
        "    yield 'yield'\n"
    )
    findings = analyze_source(src)
    assert [f.rule for f in findings] == ["MIG002"]
    assert findings[0].suppressed


def test_disable_all_wildcard():
    src = (
        "registry = {}\n"
        "def body(th):\n"
        "    registry['x'] = 1  # migralint: disable=all\n"
        "    yield 'yield'\n"
    )
    (finding,) = analyze_source(src)
    assert finding.suppressed


def test_a_justification_may_follow_the_rule_ids():
    src = (
        "registry = {}\n"
        "def body(th):\n"
        "    registry['x'] = 1  # migralint: disable=MIG002 write-once\n"
        "    registry['y'] = 1  # migralint: disable=MIG001, FLW001 reason\n"
        "    yield 'yield'\n"
    )
    first, second = analyze_source(src)
    assert first.suppressed and not second.suppressed


def test_unrelated_rule_suppression_does_not_mask():
    src = (
        "registry = {}\n"
        "def body(th):\n"
        "    registry['x'] = 1  # migralint: disable=MIG001\n"
        "    yield 'yield'\n"
    )
    (finding,) = analyze_source(src)
    assert finding.rule == "MIG002" and not finding.suppressed


def test_syntax_error_becomes_parse_finding():
    findings = analyze_source("def broken(:\n", path="bad.py")
    assert [f.rule for f in findings] == ["MIG000"]
    assert findings[0].path == "bad.py"


def test_clean_module_is_clean():
    assert analyze_source("x = 1\n\n\ndef f():\n    return x\n") == []


def test_rule_metadata_is_complete():
    for rule in all_rules():
        assert re.fullmatch(r"(MIG|FLW)\d{3}", rule.id)
        assert rule.name and rule.summary
        assert rule.severity.value in ("error", "warning")
