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


def unpicklable(params, seed):
    """A value the pool's pipe cannot carry (``SerialBackend`` returns it)."""
    return {"fn": lambda: 0}


class _KilledWhileSent:
    """A result too big for one pipe write: pickling it arms the killer."""

    def __init__(self, armed, nbytes):
        self.armed, self.blob = armed, bytes(nbytes)

    def __reduce__(self):
        self.armed.set()
        return bytes, (self.blob,)


def _sending():
    """Whether some thread of this process is writing a pipe message."""
    import sys
    for frame in sys._current_frames().values():
        while frame is not None:
            code = frame.f_code
            if (code.co_name == "_send"
                    and code.co_filename.endswith("connection.py")):
                return True
            frame = frame.f_back
    return False


def killed_while_sending(params, seed):
    """Return ~64 MB; a thread hard-kills this process once its pickled
    bytes are being written to the parent, leaving half a message."""
    import signal
    import threading
    import time
    armed = threading.Event()

    def kill_mid_send():
        armed.wait()
        while not _sending():
            time.sleep(0.001)
        os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(target=kill_mid_send, daemon=True).start()
    return _KilledWhileSent(armed, 64 << 20)


def note_pid(params, seed):
    """Write this process's pid to ``<dir>/<seed>.pid``."""
    path = os.path.join(params["dir"], f"{seed}.pid")
    with open(path + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.rename(path + ".tmp", path)
    return {"seed": seed}


def orphan(params, seed):
    """Once the seed-1 cell is running elsewhere, hard-kill the sweep's
    parent process, then return into a pipe nobody reads."""
    import signal
    import time
    note_pid(params, seed)
    while not os.path.exists(os.path.join(params["dir"], "1.pid")):
        time.sleep(0.005)
    parent = os.getppid()
    os.kill(parent, signal.SIGKILL)
    while os.getppid() == parent:
        time.sleep(0.005)
    return {"seed": seed}
