"""``python -m repro.query``: exit codes, diagnostics, and byte-stable
output."""

import json
import os
import subprocess
import sys

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
