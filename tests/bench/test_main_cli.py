"""python -m repro.bench: per-experiment failure containment.

Regression for the pre-executor bug where the first raising experiment
aborted the whole multi-experiment run, leaving every later result file
silently stale with exit behavior indistinguishable from success.
"""

import pytest

import repro.bench.__main__ as bench_main


@pytest.fixture
def fake_experiments(monkeypatch, tmp_path):
    ran = []

    def ok_a():
        ran.append("a")
        print("report A")

    def bad():
        ran.append("bad")
        raise RuntimeError("synthetic experiment failure")

    def ok_b():
        ran.append("b")
        print("report B")

    monkeypatch.setattr(bench_main, "EXPERIMENTS",
                        {"a": ok_a, "bad": bad, "b": ok_b})
    return ran


def test_failure_does_not_abort_later_experiments(fake_experiments, capsys):
    code = bench_main.main(["a", "bad", "b"])
    out = capsys.readouterr().out
    assert code == 1
    # Every experiment ran, in order — "b" was NOT skipped.
    assert fake_experiments == ["a", "bad", "b"]
    assert "report A" in out and "report B" in out
    assert "FAILED bad" in out
    assert "RuntimeError: synthetic experiment failure" in out


def test_pass_fail_table_summarizes_the_run(fake_experiments, capsys):
    bench_main.main(["a", "bad"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith(("a ", "bad "))]
    assert any("ok" in ln for ln in lines if ln.startswith("a "))
    assert any("FAILED" in ln for ln in lines if ln.startswith("bad "))
    assert "1 experiment(s) failed: bad" in out


def test_all_green_run_exits_zero(fake_experiments, capsys):
    assert bench_main.main(["a", "b"]) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out


def test_unknown_experiment_still_exits_2(fake_experiments, capsys):
    assert bench_main.main(["nope"]) == 2
    captured = capsys.readouterr()
    # Usage errors go to stderr so a piped report stream stays clean.
    assert "unknown experiment(s): nope" in captured.err
    assert captured.out == ""
