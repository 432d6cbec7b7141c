"""CLI smoke tests: exit codes and stable JSON output.

The contract: 0 = analyzed cleanly, 1 = unsuppressed findings,
2 = usage error.  JSON output must be byte-stable for a fixed tree so
CI diffs are meaningful.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
FIXTURES = os.path.join("tests", "analysis", "fixtures")
CLEAN_TARGET = os.path.join("src", "repro", "analysis")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "repro.analysis", *args],
                          capture_output=True, text=True, cwd=ROOT, env=env)


def test_exit_0_on_clean_tree():
    proc = run_cli(CLEAN_TARGET)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "migralint: clean" in proc.stdout


def test_exit_1_on_findings():
    proc = run_cli(FIXTURES)
    assert proc.returncode == 1
    assert "MIG00" in proc.stdout


def test_exit_2_on_no_paths():
    proc = run_cli()
    assert proc.returncode == 2
    assert "no paths" in proc.stderr


def test_exit_2_on_missing_path():
    proc = run_cli("no/such/dir")
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_exit_2_on_unknown_rule():
    proc = run_cli("--select", "MIG999", FIXTURES)
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr


def test_exit_2_on_bad_flag():
    proc = run_cli("--format", "xml", FIXTURES)
    assert proc.returncode == 2


def test_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rid in ("MIG001", "MIG002", "MIG003", "MIG004", "MIG005",
                "KRN001", "EXC001", "OBS001",
                "FLW001", "FLW002", "FLW003", "DET001"):
        assert rid in proc.stdout


def test_select_restricts_rules():
    proc = run_cli("--select", "MIG004", "--format", "json", FIXTURES)
    doc = json.loads(proc.stdout)
    assert doc["findings"]
    assert {f["rule"] for f in doc["findings"]} == {"MIG004"}


def test_json_output_is_stable_and_well_formed():
    first = run_cli("--format", "json", FIXTURES)
    second = run_cli("--format", "json", FIXTURES)
    assert first.returncode == 1
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["version"] == 1
    assert set(doc["summary"]) == {"total", "active", "suppressed"}
    assert doc["summary"]["active"] > 0 and doc["summary"]["suppressed"] > 0
    for f in doc["findings"]:
        assert set(f) == {"rule", "severity", "path", "line", "message",
                          "suppressed"}
    # Deterministically sorted by (path, line, rule).
    keys = [(f["path"], f["line"], f["rule"]) for f in doc["findings"]]
    assert keys == sorted(keys)


def test_human_output_pins_rule_file_line():
    proc = run_cli("--select", "MIG001",
                   os.path.join(FIXTURES, "mig001_pup.py"))
    assert proc.returncode == 1
    # Compiler-style location prefix on every finding line.
    body = proc.stdout.strip().splitlines()
    assert all(":" in line and "MIG001" in line for line in body[:-1])
    assert "mig001_pup.py:16" in proc.stdout   # the marked `dropped` line


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero(flag):
    proc = run_cli(flag)
    assert proc.returncode == 0
    assert "migralint" in proc.stdout
