"""LocalPool crash containment and serial/parallel equivalence."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.exec import (Cell, LocalPool, SerialBackend, SweepExecutor,
                        SweepSpec)
from repro.kernel import HookBus


def run(cells, backend, hooks=None):
    return SweepExecutor(SweepSpec("pool-test", cells),
                         backend=backend, hooks=hooks).run()


def test_parallel_matches_serial_on_plain_cells():
    cells = [Cell(experiment="t:echo", runner="tests.exec.workers:echo",
                  params={"k": "v"}, seed=s) for s in range(8)]
    serial = run(cells, SerialBackend())
    parallel = run(cells, LocalPool(jobs=3))
    assert [(r.cell_id, r.status, r.value) for r in serial] == \
        [(r.cell_id, r.status, r.value) for r in parallel]


def test_worker_crash_is_retried_once_on_a_fresh_worker(tmp_path):
    marker = str(tmp_path / "died-once")
    cells = [Cell(experiment="t:crash", runner="tests.exec.workers:crash_once",
                  params={"marker": marker}, seed=0),
             Cell(experiment="t:echo", runner="tests.exec.workers:echo",
                  seed=1)]
    hooks = HookBus()
    crashes = []
    hooks.subscribe("exec.cell.crash",
                    lambda payload, **ctx: crashes.append(payload) or payload)
    crash, echo = run(cells, LocalPool(jobs=2), hooks=hooks)
    assert (crash.status, crash.attempts) == ("ok", 2)
    assert crash.value == {"survived": True, "seed": 0}
    assert (echo.status, echo.attempts) == ("ok", 1)
    assert [c["will_retry"] for c in crashes] == [True]
    assert crashes[0]["exitcode"] == 17


def test_second_crash_marks_the_cell_error():
    cells = [Cell(experiment="t:crash",
                  runner="tests.exec.workers:always_crash", seed=0),
             Cell(experiment="t:echo", runner="tests.exec.workers:echo",
                  seed=1)]
    dead, echo = run(cells, LocalPool(jobs=2))
    assert (dead.status, dead.attempts) == ("error", 2)
    assert "died twice" in dead.error and "exit code 17" in dead.error
    # The crash never took the rest of the sweep down with it.
    assert echo.status == "ok"


def test_python_exceptions_are_contained_not_retried():
    cells = [Cell(experiment="t:boom", runner="tests.exec.workers:boom",
                  seed=3)]
    for backend in (SerialBackend(), LocalPool(jobs=2)):
        (res,) = run(cells, backend)
        assert (res.status, res.attempts) == ("error", 1)
        assert "ValueError: deterministic failure for seed 3" in res.error


def test_progress_events_fire_in_hookbus_convention():
    cells = [Cell(experiment="t:echo", runner="tests.exec.workers:echo",
                  seed=s) for s in range(3)]
    hooks = HookBus()
    seen = []

    def record(channel):
        def fn(payload, **ctx):
            seen.append((channel, payload.get("cell_id")))
            return payload
        return hooks.subscribe(channel, fn)

    for channel in ("exec.sweep.begin", "exec.cell.start",
                    "exec.cell.done", "exec.sweep.end"):
        record(channel)
    run(cells, SerialBackend(), hooks=hooks)
    kinds = [k for k, _ in seen]
    assert kinds[0] == "exec.sweep.begin" and kinds[-1] == "exec.sweep.end"
    assert kinds.count("exec.cell.start") == 3
    assert kinds.count("exec.cell.done") == 3


#: Runs a sweep in a child interpreter, which prints what it saw as JSON.
_SWEEP_HEAD = textwrap.dedent("""
    import json, multiprocessing, os, signal, sys, time
    from repro.exec import Cell, LocalPool

    def cell(runner, seed, **params):
        return Cell(experiment="t:" + runner, runner="tests.exec.workers:"
                    + runner, params=params, seed=seed)

    events = []

    def notify(event, payload):
        events.append([event, payload.get("will_retry")])

    def report(results):
        print(json.dumps({
            "results": [[r.status, r.attempts, r.error] for r in results],
            "events": events,
            "children": len(multiprocessing.active_children())}))
""")


def run_in_session(args, timeout=60):
    """Run a child interpreter on ``args`` in its own session, so that a
    hang can kill every process it started (a hung pool is the failure
    these tests look for, and pytest has no timeout of its own here)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert multiprocessing.active_children() == []
    return proc.returncode, out, err


def run_sweep(body):
    """Run ``body`` after ``_SWEEP_HEAD`` in a child interpreter."""
    return run_in_session(["-c", _SWEEP_HEAD + textwrap.dedent(body)])


def test_a_value_the_pipe_cannot_pickle_is_that_cells_error():
    code, out, err = run_sweep("""
        cells = [cell("unpicklable", 0), cell("echo", 1)]
        report(LocalPool(jobs=2).run(cells, [], notify))
    """)
    assert code == 0, err
    seen = json.loads(out)
    (status, attempts, error), echo = seen["results"]
    assert (status, attempts) == ("error", 1)
    assert "Traceback (most recent call last)" in error
    assert "lambda" in error
    assert echo[:2] == ["ok", 1]
    assert seen["children"] == 0
    (cell,) = SerialBackend().run([Cell(
        experiment="t:u", runner="tests.exec.workers:unpicklable")], [],
        lambda event, payload: None)
    assert cell.ok


def test_a_worker_killed_mid_message_is_a_death_not_a_hang():
    code, out, err = run_sweep("""
        cells = [cell("killed_while_sending", 0), cell("echo", 1)]
        report(LocalPool(jobs=2).run(cells, [], notify))
    """)
    assert code == 0, err
    seen = json.loads(out)
    (status, attempts, error), echo = seen["results"]
    assert (status, attempts) == ("error", 2)
    assert "died twice" in error and f"exit code {-signal.SIGKILL}" in error
    assert echo[:2] == ["ok", 1]
    assert [e for e in seen["events"] if e[0] == "cell.crash"] == \
        [["cell.crash", True], ["cell.crash", False]]
    assert seen["children"] == 0


def test_a_worker_dead_before_its_next_cell_costs_that_cell_nothing():
    """The worker dies after its result is sent; the parent's dispatch of
    the next cell meets a closed pipe.  The cell never reached a worker,
    so it runs on a fresh one at its first attempt."""
    code, out, err = run_sweep("""
        cells = [cell("pid", 0), cell("echo", 1)]

        def kill_worker(done, result):
            if done is cells[0]:
                os.kill(result.value["pid"], signal.SIGKILL)
                while any(p.pid == result.value["pid"]
                          for p in multiprocessing.active_children()):
                    time.sleep(0.005)

        report(LocalPool(jobs=1).run(cells, [], notify,
                                     on_result=kill_worker))
    """)
    assert code == 0, err
    seen = json.loads(out)
    assert [r[:2] for r in seen["results"]] == [["ok", 1], ["ok", 1]]
    assert "cell.crash" not in [e[0] for e in seen["events"]]
    assert seen["children"] == 0


#: Adopts what the sweep's child interpreter (``argv[1]``) leaves behind,
#: then reaps and reports it.
_REAPER = textwrap.dedent("""
    import ctypes, json, os, subprocess, sys
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    sweep = subprocess.run([sys.executable, "-c", sys.argv[1]],
                           capture_output=True, text=True)
    reaped = {}
    while True:
        try:
            pid, status = os.wait()
        except ChildProcessError:
            break
        reaped[pid] = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": sweep.returncode, "out": sweep.stdout,
                      "err": sweep.stderr, "reaped": reaped}))
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="adopts orphans with prctl(PR_SET_CHILD_SUBREAPER)")
def test_workers_whose_parent_is_gone_exit_quietly(tmp_path):
    """The sweep's parent is hard-killed while one worker runs a cell and
    the other is idle: both see their pipe close and exit 0 with no
    traceback.  The sweep's stdout and stderr close only once both have
    let go of them."""
    code, out, err = run_in_session(["-c", _REAPER, _SWEEP_HEAD + f"""
cells = [cell("orphan", 0, dir={str(tmp_path)!r}),
         cell("note_pid", 1, dir={str(tmp_path)!r})]
report(LocalPool(jobs=2).run(cells, [], notify))
"""])
    assert code == 0, err
    seen = json.loads(out)
    assert (seen["code"], seen["out"], seen["err"]) == \
        (-signal.SIGKILL, "", "")
    workers = {(tmp_path / f"{seed}.pid").read_text() for seed in (0, 1)}
    assert seen["reaped"] == {pid: 0 for pid in workers}
