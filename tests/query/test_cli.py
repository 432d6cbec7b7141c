"""``python -m repro.query``: exit codes, diagnostics, and byte-stable
output."""

import json
import os
import subprocess
import sys

import pytest

from repro.kernel.trace import load_trace
from repro.obs.report import build_report, render_report
from repro.query import canonical_json
from tests.obs.conftest import run_observed

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.query", *args],
        capture_output=True, text=True, env=env, cwd=ROOT)


def test_filter_exit_codes(chaos_trace_file, chaos_trace):
    hit = _cli("filter", chaos_trace_file, "ev == 'end'", "--count")
    assert hit.returncode == 0, hit.stderr
    assert int(hit.stdout) == \
        sum(1 for e in chaos_trace if e.get("ev") == "end")
    miss = _cli("filter", chaos_trace_file, "ev == 'no-such-event'")
    assert miss.returncode == 1
    assert miss.stdout == ""


def test_filter_json_lines_round_trip(chaos_trace_file, chaos_trace):
    proc = _cli("filter", chaos_trace_file, "ev == 'send'", "--json")
    assert proc.returncode == 0, proc.stderr
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    want = [e for e in chaos_trace if e.get("ev") == "send"]
    assert got == want
    assert len(want) > 0


def test_syntax_error_is_exit_2_with_caret(chaos_trace_file):
    proc = _cli("filter", chaos_trace_file, "ev == ")
    assert proc.returncode == 2
    assert "^" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_aggregate_cli_matches_module_api(chaos_trace_file, chaos_trace):
    from repro.query import aggregate_entries, canonical_json
    proc = _cli("aggregate", chaos_trace_file,
                "count(), sum(bytes) by ev", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == canonical_json(
        aggregate_entries(chaos_trace, "count(), sum(bytes) by ev"))


def test_timeline_cli_answers_over_lines_without_a_numeric_t(tmp_path):
    """Regression: ``"t": null`` (a line ``load_trace`` accepts) used to
    die in ``window_index`` with a raw TypeError traceback."""
    path = tmp_path / "f.jsonl"
    path.write_text('{"ev":"end","t":5.0}\n{"ev":"x","t":null}\n'
                    '{"ev":"x","t":"late","clock":{"0":"x"}}\n')
    proc = _cli("timeline", str(path), "--windows", "2", "--json")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    result = json.loads(proc.stdout)
    assert result["makespan_ns"] == 5.0
    assert [w["count"] for w in result["windows"]] == [2, 1]


def test_timeline_cli_renders_and_serializes(chaos_trace_file):
    human = _cli("timeline", chaos_trace_file, "--windows", "4")
    assert human.returncode == 0, human.stderr
    assert "makespan" in human.stdout
    machine = _cli("timeline", chaos_trace_file, "--windows", "4", "--json")
    assert len(json.loads(machine.stdout)["windows"]) == 4


def test_non_utf8_trace_is_exit_2_not_a_miss(tmp_path):
    """A byte that is not UTF-8 text used to escape as a traceback with
    exit 1, which ``filter`` means as "nothing matched"."""
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"ev": "end", "t": 1.0}\n{"ev": "\xff"}\n')
    proc = _cli("filter", str(path), "ev == 'end'", "--count")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{path}:2: trace line is not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_trace_and_bad_runspec_are_exit_2():
    assert _cli("filter", "no-such.trace", "ev").returncode == 2
    proc = _cli("bisect", "chaos:nope:seed=1", "chaos:stencil:seed=2")
    assert proc.returncode == 2
    assert "runspec" in proc.stderr


def test_malformed_runspecs_and_timespecs_are_exit_2_not_tracebacks():
    for args in (("at", "chaos:stencil:seed=--5", "100"),
                 ("at", "flows:ring:ranks=abc", "@3"),
                 ("at", "flows:ring", "@-3"),
                 ("at", "flows:ring", "nan")):
        proc = _cli(*args)
        assert proc.returncode == 2, args
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


def test_bisect_cli_identical_and_divergent():
    same = _cli("bisect", "flows:ring:ranks=3:rounds=2",
                "flows:ring:ranks=3:rounds=2", "--json")
    assert same.returncode == 0, same.stderr
    assert json.loads(same.stdout)["diverged"] is False
    diff = _cli("bisect", "flows:spin:rounds=2", "flows:spin:rounds=3",
                "--json")
    assert diff.returncode == 1, diff.stderr
    result = json.loads(diff.stdout)
    assert result["diverged"] is True
    assert result["index"] >= 0
    assert result["a"] != result["b"]


def test_at_cli_output_is_byte_stable():
    args = ("at", "flows:stencil:form=thread", "@40")
    first = _cli(*args)
    assert first.returncode == 0, first.stderr
    assert _cli(*args).stdout == first.stdout
    compiled = _cli("at", "flows:stencil:form=compiled", "@40")
    assert compiled.stdout == first.stdout
    state = json.loads(first.stdout)
    assert state["kind"] == "flows"


# -- report -----------------------------------------------------------------

@pytest.fixture(scope="module")
def observed_trace(tmp_path_factory):
    """A dumped ``RunObserver`` trace of a migrating AMPI run and the
    runtime that made it."""
    rt, obs = run_observed()
    path = str(tmp_path_factory.mktemp("report") / "run.trace")
    obs.dump(path)
    return rt, path


def test_report_json_matches_module_api(observed_trace):
    rt, path = observed_trace
    proc = _cli("report", path, "--json")
    assert proc.returncode == 0, proc.stderr
    want = build_report(load_trace(path))
    assert proc.stdout == canonical_json(want) + "\n"
    report = json.loads(proc.stdout)
    assert report == want
    assert report["migrations"]["completed"] == \
        rt.migrator.migrations_completed
    assert report["migrations"]["returned"] == \
        rt.migrator.migrations_returned
    # --json output is deterministic: same trace, same bytes.
    assert _cli("report", path, "--json").stdout == proc.stdout


def test_report_text_mode_and_error_path(observed_trace):
    _, path = observed_trace
    proc = _cli("report", path, "--windows", "3")
    assert proc.returncode == 0, proc.stderr
    assert "per-PE utilization" in proc.stdout
    assert proc.stdout == render_report(
        build_report(load_trace(path), windows=3)) + "\n"
    missing = _cli("report", os.path.join(ROOT, "no-such.trace"))
    assert missing.returncode == 2
    assert missing.stderr.strip()


@pytest.mark.parametrize("windows", ["0", "-3"])
def test_report_refuses_a_timeline_without_windows(observed_trace, windows):
    """The rule ``timeline --windows 0`` follows: exit 2, not a report
    that silently has no timeline."""
    _, path = observed_trace
    proc = _cli("report", path, "--windows", windows)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "at least one window" in proc.stderr


def test_report_non_utf8_trace_is_a_positioned_error(tmp_path):
    """A byte that is not UTF-8 text is the loader's positioned
    diagnostic, exit 2 — not a ``UnicodeDecodeError`` traceback."""
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b'{"ev": "end", "t": 1.0}\n{"ev": "\xff"}\n')
    proc = _cli("report", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}:2: trace line is not UTF-8 text\n"


def test_report_empty_trace_is_a_diagnosed_error(tmp_path):
    """An empty trace is a usage error, not a meaningless all-zero
    report: exit 2, one-line diagnostic."""
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    proc = _cli("report", str(empty))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "empty trace" in proc.stderr


def test_a_reader_closing_the_pipe_is_exit_0_and_silent(tmp_path):
    """``filter … | head -1``: ``BrokenPipeError`` is an ``OSError``, and
    the ``OSError`` branch used to catch it first — ``error: [Errno 32]
    Broken pipe``, exit 2.  The output is larger than a pipe's buffer,
    so the write that meets the closed pipe happens while the verb runs."""
    path = tmp_path / "big.trace"
    path.write_text("".join(f'{{"ev":"x","t":{i}}}\n' for i in range(20000)))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.query", "filter", str(path), "true"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    assert proc.stdout.readline() == b'{"ev": "x", "t": 0}\n'
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""
