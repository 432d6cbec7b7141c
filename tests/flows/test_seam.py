"""Structural pins: ``repro.flows`` has one rank-hosting seam.

One function turns a program into tasks (the two forms the compiler
relates), one call site does the bulk post, one method is a kernel
dispatch target, and hand-written event objects are refused there once
with a pointer to ``repro.charm`` — so a second spawner, context,
delivery path or seeding stanza cannot quietly return (the style of
``test_kernel_has_a_single_dispatch_loop``).
"""

import ast
import pathlib

import pytest

import repro
from repro.errors import QueryError, ReproError
from repro.flows import EventObjectFlow
from repro.flows.programs import ring_program
from repro.flows.runtime import FlowWorld
from repro.query.replay import parse_runspec
from repro.sim import Processor, get_platform

SRC = pathlib.Path(repro.__file__).parent
RUNTIME = SRC / "flows" / "runtime.py"
TASK_CLASSES = {"_GeneratorTask", "CompiledTask"}


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


def test_the_flows_runtime_defines_exactly_the_two_task_classes():
    """A rank is one object: both task classes *are* ``FlowContext``s,
    and no context points back at a separate task."""
    tree = ast.parse(RUNTIME.read_text())
    tasks = {c.name for c in tree.body if isinstance(c, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "FlowContext"
                     for b in c.bases)}
    assert tasks == TASK_CLASSES
    classes = {c.name for c in tree.body if isinstance(c, ast.ClassDef)}
    assert "_Task" not in classes
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "_task" not in attrs
    slots = {elt.value for n in ast.walk(tree)
             if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in n.targets)
             for elt in ast.walk(n.value) if isinstance(elt, ast.Constant)}
    assert "_task" not in slots


def test_one_bulk_post_call_site_in_the_flows_runtime():
    posters = _functions_calling(
        [RUNTIME],
        lambda f: isinstance(f, ast.Attribute) and f.attr == "post_batch")
    assert posters == {("runtime.py", "seed")}


def test_one_delivery_path_and_one_dispatch_target():
    """``send`` appends to the mailbox itself; no function in the flows
    runtime is named, or calls, ``on_message``/``_deliver``, and
    ``_resume`` is the only ``FlowWorld`` method handed to the kernel."""
    tree = ast.parse(RUNTIME.read_text())
    gone = {"on_message", "_deliver", "_mailbox_deliver", "finish"}
    defined = {f.name for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef)}
    assert not defined & gone
    assert _functions_calling(
        [RUNTIME],
        lambda f: isinstance(f, ast.Attribute) and f.attr in gone) == set()
    targets = {arg.attr
               for call in ast.walk(tree) if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Attribute)
               and call.func.attr in ("post", "post_batch")
               for arg in call.args[1:2] if isinstance(arg, ast.Attribute)}
    assert targets == {"_resume"}


def test_core_never_searches_the_kernel_to_cancel():
    """A thread holds its resumption slot (``CthScheduler.unqueue``);
    nothing in ``repro.core`` scans ``live_events()`` for it."""
    scanners = _functions_calling(
        SRC.joinpath("core").glob("*.py"),
        lambda f: isinstance(f, ast.Attribute) and f.attr == "live_events")
    assert scanners == set()


def test_event_objects_are_refused_with_a_pointer_to_charm():
    program = ring_program(2, 1)
    with pytest.raises(ReproError, match=r"flow form 'event'.*repro\.charm"):
        FlowWorld(2).spawn("event", program)
    # The cost model keeps its figures; it does not execute programs.
    mech = EventObjectFlow(Processor(0, get_platform("linux_x86")))
    with pytest.raises(ReproError, match=r"repro\.charm"):
        mech.run_workload(program, real_flows=False)
    with pytest.raises(QueryError,
                       match=r"'flows:stencil:form=event'.*repro\.charm"):
        parse_runspec("flows:stencil:form=event")


def test_spawn_refuses_a_missing_or_unknown_form():
    program = ring_program(2, 1)
    with pytest.raises(ReproError, match="unknown flow form 'fiber'"):
        FlowWorld(2).spawn("fiber", program)
    world = FlowWorld(2)
    world.spawn("thread", program)
    with pytest.raises(ReproError, match="already populated"):
        world.spawn("compiled", program)
