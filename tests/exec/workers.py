"""Worker entry points for the executor tests.

These live in a real importable module (not closures) because cells
address their runners by dotted path — the same discipline
``tests/test_layering.py`` pins on the shipped runners.  The crashy ones communicate through
marker files so a retried cell can behave differently on a fresh worker.
"""

from __future__ import annotations

import os


def echo(params, seed):
    """Deterministic payload from plain inputs."""
    return {"params": dict(params), "seed": seed, "double": (seed or 0) * 2}


def boom(params, seed):
    """A deterministic Python failure: contained, never retried."""
    raise ValueError(f"deterministic failure for seed {seed}")


def crash_once(params, seed):
    """Hard-kill the worker on the first attempt, succeed on the second."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1 died here\n")
        os._exit(17)
    return {"survived": True, "seed": seed}


def always_crash(params, seed):
    """Hard-kill the worker on every attempt."""
    os._exit(17)


def slow_echo(params, seed):
    """Like echo, but slow enough that parallelism is observable."""
    import time
    time.sleep(params.get("sleep_s", 0.05))
    return {"seed": seed}


def pid(params, seed):
    """The process that ran the cell, beside its params."""
    return {"pid": os.getpid(), "params": dict(params)}


def nested_pids(params, seed):
    """A cell that maps cells itself: which processes ran them?"""
    from repro.exec import map_cells
    return {"pid": os.getpid(),
            "pids": [v["pid"] for v in map_cells("tests.exec.workers:pid",
                                                 [{}, {}, {}])]}
