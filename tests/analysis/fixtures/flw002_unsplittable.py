"""FLW002 fixture: constructs the thread→event split cannot cut.

One function per blocker class: suspend in try/finally, suspend in
with, suspend under except, suspend in the body of a try with handlers
only, bare non-directive yield, closure capture rebound across a
suspend, and recursion through a suspending cycle — plus clean twins
showing the splittable versions.
"""


def worker(th):
    yield "suspend"


def finally_body(th):
    try:
        yield "suspend"  # expect: FLW002
    finally:
        release()


def with_body(th):
    with acquire() as resource:
        yield "yield"  # expect: FLW002
        use(resource)
    yield "suspend"


def except_body(th):
    try:
        attempt()
    except ValueError:
        yield "suspend"  # expect: FLW002
    yield "yield"


def plain_try_body(th):
    try:
        yield "suspend"  # expect: FLW002
    except ValueError:
        pass
    yield "yield"


def bare_body(th):
    yield 42  # expect: FLW002
    yield "yield"


def io_body(th):
    yield ("io", 1000)
    yield "yield"


def closure_body(th):
    count = 0

    def peek():
        return count

    yield "suspend"
    count = count + 1  # expect: FLW002
    return peek


def threaded_closure_body(th):
    total = 0
    yield "suspend"
    total = total + 1
    return total


def recursive_body(th):  # expect: FLW002
    yield "suspend"
    yield from recursive_body(th)


def delegating_body(th):
    with acquire():
        yield from worker(th)  # expect: FLW002


def text_lines():
    yield "header"
    yield "detail"


def suppressed_body(th):
    try:
        # Cleanup is idempotent; rewrite scheduled with the compiler PR.
        # migralint: disable=FLW002
        yield "suspend"
    finally:
        release()


def release():
    return None


def acquire():
    return None


def attempt():
    return None


def use(resource):
    return resource
