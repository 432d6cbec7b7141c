"""Structural pins: ``repro.flows`` has one rank-hosting seam.

One function turns a program into tasks, one call site does the bulk
post, and the one error for a missing event-object form is raised
there — so a second spawner, context or seeding stanza cannot quietly
return (the style of ``test_kernel_has_a_single_dispatch_loop``).
"""

import ast
import pathlib

import pytest

import repro
from repro.errors import ReproError
from repro.flows.programs import ring_program
from repro.flows.runtime import FlowWorld

SRC = pathlib.Path(repro.__file__).parent
TASK_CLASSES = {"_GeneratorTask", "CompiledTask", "_EventObjectTask"}


def _functions_calling(paths, is_hit):
    """``{(file name, function name)}`` of every function under ``paths``
    containing a call that ``is_hit`` accepts."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and is_hit(node.func):
                    found.add((path.name, fn.name))
    return found


def test_one_function_turns_a_program_into_tasks():
    paths = [*SRC.joinpath("flows").glob("*.py"),
             *SRC.joinpath("query").glob("*.py")]
    builders = _functions_calling(
        paths, lambda f: isinstance(f, ast.Name) and f.id in TASK_CLASSES)
    assert builders == {("runtime.py", "spawn")}


def test_one_bulk_post_call_site_in_the_flows_runtime():
    posters = _functions_calling(
        [SRC / "flows" / "runtime.py"],
        lambda f: isinstance(f, ast.Attribute) and f.attr == "post_batch")
    assert posters == {("runtime.py", "_post_all")}


def test_core_never_searches_the_kernel_to_cancel():
    """A thread holds its resumption slot (``CthScheduler.unqueue``);
    nothing in ``repro.core`` scans ``live_events()`` for it."""
    scanners = _functions_calling(
        SRC.joinpath("core").glob("*.py"),
        lambda f: isinstance(f, ast.Attribute) and f.attr == "live_events")
    assert scanners == set()


def test_spawn_refuses_a_missing_or_unknown_form():
    program = ring_program(2, 1)            # no hand-written event form
    with pytest.raises(ReproError, match="no hand-written event-object"):
        FlowWorld(2).spawn("event", program)
    with pytest.raises(ReproError, match="unknown flow form 'fiber'"):
        FlowWorld(2).spawn("fiber", program)
    world = FlowWorld(2)
    world.spawn("thread", program)
    with pytest.raises(ReproError, match="already populated"):
        world.spawn("compiled", program)
