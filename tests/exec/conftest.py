"""Every exec test leaves no process running.

A pool that loses track of a worker leaves a live child behind; this
fixture fails the test that did it (and stops the child, so the next
test starts clean).
"""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"left {len(left)} child process(es) running: "
                    f"{[child.name for child in left]}")
