"""The package import graph, pinned (``docs/architecture.md`` §5).

The layers are load-bearing: the kernel knows nothing above it, the
thread core knows no runtime built on it, and ``repro.flows`` hosts
only the two forms the compiler relates — event-driven objects live
once, in ``repro.charm``.  The whole edge list is data here, so a new
edge (upward or not) is a reviewed diff rather than an accident.  AST
scan only: nothing is imported, lazy in-function imports count.  Two
more structural rules ride on the same scan: ``repro.vm``'s extent
operations contain no per-page loop (``PER_PAGE_LOOPS``), and the
point-to-point message road builds no string and consults the
``net.send`` filter only when it is subscribed (``PER_MESSAGE``); a
thread image crosses the host per mapping and per image, never per page
or per field (``PER_IMAGE``); the host side derives what is fixed per
journal, per sweep and per cell in one place each (``PER_SWEEP``); a
migratable thread's facts — where its stack bytes are, what its image
weighs, why its rank is parked — have one owner each (``PER_THREAD``);
every channel the fault injector subscribes is a runtime's
(``PER_FAULT``); and nothing stored on ``self`` goes unread
(``WRITE_ONLY_ALLOWED``).
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: package -> the sibling packages (or top-level modules) it imports.
IMPORTS = {
    "ampi": {"balance", "core", "errors", "sim"},
    "analysis": set(),
    "balance": {"errors", "kernel"},
    "bench": {"balance", "bigsim", "core", "errors", "exec", "flows", "sim",
              "workloads"},
    "bigsim": {"ampi", "balance", "errors", "workloads"},
    "chaos": {"ampi", "balance", "core", "errors", "workloads"},
    "charm": {"core", "errors", "kernel", "sim"},
    "core": {"errors", "kernel", "sim", "vm"},
    "errors": set(),
    "exec": {"chaos", "errors", "kernel"},
    "flows": {"analysis", "core", "errors", "kernel", "sim"},
    "kernel": {"errors"},
    "obs": {"balance", "errors", "kernel", "query"},
    "pose": {"core", "errors", "sim"},
    "query": {"chaos", "errors", "flows", "kernel", "obs"},
    "serve": {"errors", "exec", "kernel", "obs"},
    "sim": {"errors", "kernel", "vm"},
    "vm": {"errors"},
    "workloads": {"ampi", "balance", "charm", "core", "errors", "flows",
                  "sim"},
}


#: The import edges that close a cycle, each with the reason it stays.
#: Without them the package graph is a DAG; a new cycle fails
#: ``test_the_only_cycles_are_the_named_ones``.
CYCLE_EDGES = {
    # ``perf/`` pins ``repro.query.run_recorded`` (which records through a
    # ``RunObserver``) and ``repro.obs.RunObserver`` (whose report is built
    # on the query engines): the {obs, query} pair.
    ("query", "obs"),
}


def scan_imports():
    """``{package: {imported sibling packages}}`` over ``src/repro``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.name == "__init__.py" and len(rel.parts) == 1:
            continue
        pkg = rel.parts[0] if len(rel.parts) > 1 else rel.stem
        targets = found.setdefault(pkg, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{rel}: relative import"
                names = ([f"repro.{a.name}" for a in node.names]
                         if node.module == "repro" else [node.module])
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    targets.add(parts[1])
        targets.discard(pkg)
    return found


def test_the_import_graph_is_the_reviewed_one():
    found = scan_imports()
    assert sorted(found) == sorted(IMPORTS)
    drift = {pkg: (sorted(found[pkg] - IMPORTS[pkg]),
                   sorted(IMPORTS[pkg] - found[pkg]))
             for pkg in IMPORTS if found[pkg] != IMPORTS[pkg]}
    assert not drift, f"{{package: (new edges, vanished edges)}} = {drift}"


def test_the_only_cycles_are_the_named_ones():
    assert all(dst in IMPORTS[src] for src, dst in CYCLE_EDGES)
    graph = {pkg: {dst for dst in deps if (pkg, dst) not in CYCLE_EDGES}
             for pkg, deps in IMPORTS.items()}
    done = set()
    while len(done) < len(graph):
        ready = {pkg for pkg, deps in graph.items()
                 if pkg not in done and deps <= done}
        assert ready, ("import cycle among "
                       f"{sorted(set(graph) - done)}")
        done |= ready


def test_the_load_bearing_layers_hold_in_the_reviewed_graph():
    assert IMPORTS["kernel"] == IMPORTS["vm"] == {"errors"}
    assert not IMPORTS["core"] & {"ampi", "charm", "flows"}
    assert not IMPORTS["flows"] & {"charm", "ampi", "workloads"}


#: ``AddressSpace`` method -> the ``for … in range(…)`` loops doing
#: per-page work (a subscript or a call in the body) it may contain.  A
#: mapping is one extent: reserving, unmapping, re-protecting and
#: detaching cost the host one step whatever the range's size, as they
#: cost the modeled machine one call.  These were one loop each.
PER_PAGE_LOOPS = {"mmap": 0, "munmap": 0, "mprotect": 0, "detach_frames": 0}


def per_page_loops(func):
    """``for``/comprehension loops over a ``range`` that subscript or
    call something per iteration."""
    def mentions(node, kinds):
        return any(isinstance(n, kinds) for n in ast.walk(node))

    def over_range(it):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "range" for n in ast.walk(it))

    count = 0
    for node in ast.walk(func):
        if isinstance(node, ast.For) and over_range(node.iter):
            count += any(mentions(stmt, (ast.Subscript, ast.Call))
                         for stmt in node.body)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            count += any(over_range(gen.iter) for gen in node.generators)
    return count


def test_extent_operations_do_no_per_page_host_work():
    tree = ast.parse((SRC / "vm" / "addrspace.py").read_text())
    (space,) = (node for node in tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == "AddressSpace")
    found = {fn.name: per_page_loops(fn) for fn in space.body
             if isinstance(fn, ast.FunctionDef) and fn.name in PER_PAGE_LOOPS}
    assert found == PER_PAGE_LOOPS


#: The image road pays per image and per mapping, never per page or per
#: field.  ``AddressSpace.read``/``write`` contain no ``yield`` and call
#: no generator helper (they resumed ``_pages`` once per page); each of
#: their ``while`` loops turns once per mapping (it calls ``mapping_at``)
#: and no ``for`` loop runs over a ``range`` of pages.  ``pack_value``'s
#: walk calls no pupper method (a ``PackingPupper`` ran ``int`` →
#: ``_prim`` → ``_tick`` per field) and builds no pupper.
PER_IMAGE = {
    "loads_and_stores": ("vm/addrspace.py", "AddressSpace",
                         {"read", "write"}),
    "value_walk": ("core/pup.py", {"pack_value", "_walk", "_kind"}),
}


def per_page_steps(cls, names):
    """``{method: [finding, …]}`` for the methods ``names`` of ``cls``."""
    generators = {fn.name for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(n, (ast.Yield, ast.YieldFrom))
                          for n in ast.walk(fn))}
    found = {}
    for fn in cls.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        steps = found[fn.name] = []
        for node in ast.walk(fn):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                steps.append(f"yield at line {node.lineno}")
            elif isinstance(node, ast.Call) and callee(node) in generators:
                steps.append(f"{callee(node)}() at line {node.lineno}")
            elif (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                    and callee(node.iter) == "range"):
                steps.append(f"range loop at line {node.lineno}")
            elif isinstance(node, ast.While) and not any(
                    isinstance(n, ast.Call) and callee(n) == "mapping_at"
                    for n in ast.walk(node)):
                steps.append(f"while without mapping_at at line "
                             f"{node.lineno}")
    return found


def pupper_calls(tree, names):
    """Calls, in the functions ``names`` of ``tree``, of a pupper method
    (``x.int(…)``) or of a pupper class."""
    puppers = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name.endswith("Pupper")]
    methods = {fn.name for cls in puppers for fn in cls.body
               if isinstance(fn, ast.FunctionDef)}
    classes = {cls.name for cls in puppers}
    return [f"{fn.name}: {callee(node)}() at line {node.lineno}"
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name in names
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and ((isinstance(node.func, ast.Attribute)
                  and node.func.attr in methods)
                 or (isinstance(node.func, ast.Name)
                     and node.func.id in classes))]


def test_the_image_road_pays_per_mapping_and_per_image():
    rel, cls_name, names = PER_IMAGE["loads_and_stores"]
    (space,) = (node for node in ast.parse((SRC / rel).read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == cls_name)
    assert per_page_steps(space, names) == {name: [] for name in names}
    rel, names = PER_IMAGE["value_walk"]
    tree = ast.parse((SRC / rel).read_text())
    assert {fn.name for fn in tree.body
            if isinstance(fn, ast.FunctionDef)} >= names
    assert pupper_calls(tree, names) == []


def test_the_per_image_scans_see_what_they_forbid():
    (space,) = ast.parse(
        "class AddressSpace:\n"
        "    def _pages(self, address, length):\n"
        "        yield address\n"
        "    def read(self, address, length):\n"
        "        return b''.join(self._pages(address, length))\n"
        "    def write(self, address, payload):\n"
        "        for index in range(len(payload)):\n"
        "            self.frames[index].write(0, payload)\n"
        "        while address:\n"
        "            address -= 1\n"
        "        while address:\n"
        "            m = self.mapping_at(address)\n").body
    assert per_page_steps(space, {"read", "write"}) == {
        "read": ["_pages() at line 5"],
        "write": ["range loop at line 7", "while without mapping_at at "
                                          "line 9"]}
    tree = ast.parse(
        "class BasePupper:\n"
        "    def int(self, v): ...\n"
        "class PackingPupper(BasePupper):\n"
        "    def _prim(self, fmt, v): ...\n"
        "def _walk(value, out):\n"
        "    out(value.encode('utf-8'))\n"
        "    p = PackingPupper()\n"
        "    p.int(len(value))\n"
        "def pack_value(value):\n"
        "    return p._prim('<q', value)\n"
        "def other(p):\n"
        "    p.int(1)\n")
    assert pupper_calls(tree, {"_walk", "pack_value"}) == [
        "_walk: PackingPupper() at line 7", "_walk: int() at line 8",
        "pack_value: _prim() at line 10"]


#: file -> (class, methods): the point-to-point message road.  Each
#: method runs once per message, so none builds a string (an f-string
#: outside a ``raise`` or a cache-miss ``if … is None:`` branch) and none
#: consults the ``net.send`` filter channel outside the ``hooks.has(…)``
#: branch: labels are tables bound per run, the filter is the chaos
#: cells' road.
PER_MESSAGE = {
    "sim/cluster.py": ("Cluster", {"send"}),
    "sim/processor.py": ("Processor", {"deliver"}),
    "sim/dispatch.py": ("TagDispatcher", {"_dispatch"}),
    "ampi/runtime.py": ("AmpiRuntime", {"_send", "_enqueue", "_match"}),
}


def per_message_work(func):
    """Descriptions of the f-strings and ``.filter(`` calls in ``func``
    that sit on its every-message path."""
    def is_none_test(test):
        return (isinstance(test, ast.Compare)
                and any(isinstance(op, ast.Is) for op in test.ops)
                and any(isinstance(c, ast.Constant) and c.value is None
                        for c in test.comparators))

    def calls_has(test):
        return any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "has" for n in ast.walk(test))

    found = []

    def visit(node, cold, subscribed):
        if isinstance(node, ast.JoinedStr) and not cold:
            found.append(f"f-string at line {node.lineno}")
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "filter" and not subscribed):
            found.append(f".filter( at line {node.lineno}")
        if isinstance(node, ast.If):
            visit(node.test, cold, subscribed)
            for stmt in node.body:
                visit(stmt, cold or is_none_test(node.test),
                      subscribed or calls_has(node.test))
            for stmt in node.orelse:
                visit(stmt, cold, subscribed)
            return
        cold = cold or isinstance(node, ast.Raise)
        for child in ast.iter_child_nodes(node):
            visit(child, cold, subscribed)

    visit(func, False, False)
    return found


def test_the_message_road_builds_no_strings_and_filters_only_subscribed():
    seen = {}
    for rel, (cls_name, methods) in PER_MESSAGE.items():
        (cls,) = (node for node in ast.parse((SRC / rel).read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == cls_name)
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in methods:
                seen[f"{cls_name}.{fn.name}"] = per_message_work(fn)
    assert seen == {f"{cls_name}.{name}": []
                    for cls_name, methods in PER_MESSAGE.values()
                    for name in methods}


def test_the_per_message_scan_sees_what_it_forbids():
    (func,) = ast.parse(
        "def send(self, dst):\n"
        "    flow = f'pe{dst}'\n"
        "    if flow is None:\n"
        "        flow = f'pe{dst}'\n"
        "    if dst < 0:\n"
        "        raise ValueError(f'bad {dst}')\n"
        "    if self.hooks.has('net.send'):\n"
        "        self.hooks.filter('net.send', [])\n"
        "    else:\n"
        "        self.hooks.filter('net.send', [])\n").body
    assert per_message_work(func) == ["f-string at line 2",
                                      ".filter( at line 10"]


#: file -> the functions holding the one call that derives the fact the
#: file owns.  The journal file is opened for reading by one function
#: (at open: every later answer comes from what ``append`` folded), the
#: service calls ``spec_from_wire`` at one site (registration; the run
#: uses that spec), and one function calls ``_canonical`` (every name of
#: a cell derives from its text).  Each was re-derived per request.
PER_SWEEP = {
    "serve/journal.py": ["_load"],
    "serve/service.py": ["_register"],
    "exec/spec.py": ["_params_json"],
}


def callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def opens_to_read(call):
    """``open(...)`` with no mode, or one that can read (``r``, ``+``)."""
    if callee(call) != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords
                              if k.arg == "mode"]
    return not modes or not isinstance(modes[0], ast.Constant) or bool(
        set(modes[0].value) & set("r+"))


def functions_calling(rel, matches):
    """One entry per matching call: the name of the function it is in."""
    return [fn.name for fn in ast.walk(ast.parse((SRC / rel).read_text()))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and matches(node)]


def test_per_sweep_facts_are_derived_in_one_place_each():
    found = {
        "serve/journal.py": functions_calling("serve/journal.py",
                                              opens_to_read),
        "serve/service.py": functions_calling(
            "serve/service.py", lambda c: callee(c) == "spec_from_wire"),
        "exec/spec.py": functions_calling(
            "exec/spec.py", lambda c: callee(c) == "_canonical"),
    }
    assert found == PER_SWEEP


def test_the_per_sweep_scan_tells_reading_from_writing():
    calls = [stmt.value for stmt in ast.parse(
        "open(p)\nopen(p, 'r')\nopen(p, mode='a+')\nopen(p, mode)\n"
        "open(p, 'a')\nopen(p, 'w', encoding='utf-8')\nos.replace(a, b)\n"
    ).body]
    assert [opens_to_read(c) for c in calls] == [True, True, True, True,
                                                  False, False, False]


#: What one migratable thread's facts may cost in definitions.  Across
#: the two stack modules, ``evacuate``/``stack_read``/``stack_write``
#: have a single-address body and a direct-address (isomalloc) body,
#: ``pack``/``unpack`` a third for the k-slot tag (each technique once
#: had its own of all five); ``MemoryAliasStacks`` walks private frames
#: in no loop of its own — the pool's ``load``/``store`` move them as one
#: run (it had three loops, then one); the migrator reads no key of a
#: stack image; and a parked rank is one record in one table, written by
#: the blocking operation itself.
PER_THREAD = {
    "definitions": {"evacuate": 2, "stack_read": 2, "stack_write": 2,
                    "pack": 3, "unpack": 3},
    "frame_loops": 0,
    "image_keys": {"contents", "slot", "heap_state", "stack_contents",
                   "heap_contents"},
    "park_containers": {"_waiting", "_wait_pred", "_at_migrate",
                        "_at_checkpoint"},
}

FRAME_METHODS = {"read", "write", "zero", "copy_from"}


def concrete_definitions(trees, names):
    """``{name: count}`` of non-abstract method definitions."""
    def abstract(fn):
        return any(getattr(d, "id", getattr(d, "attr", None))
                   == "abstractmethod" for d in fn.decorator_list)
    found = dict.fromkeys(names, 0)
    for tree in trees:
        for fn in ast.walk(tree):
            if (isinstance(fn, ast.FunctionDef) and fn.name in found
                    and not abstract(fn)):
                found[fn.name] += 1
    return found


def frame_loops(cls):
    """Loops (statement or comprehension) in ``cls`` whose body calls a
    ``Frame`` method."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return sum(
        any(isinstance(n, ast.Call) and callee(n) in FRAME_METHODS
            and isinstance(n.func, ast.Attribute) for n in ast.walk(loop))
        for loop in ast.walk(cls) if isinstance(loop, loops))


def subscripted_keys(tree):
    """String constants used as a subscript anywhere in ``tree``."""
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def names_mentioned(tree):
    """Every identifier and attribute name in ``tree``."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def runtime_calls(tree):
    """Names of the methods called on ``….runtime`` / ``runtime``."""
    def is_runtime(node):
        return (getattr(node, "attr", None) == "runtime"
                or getattr(node, "id", None) == "runtime")
    return {n.func.attr for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and is_runtime(n.func.value)}


def is_park_setter(name):
    return name.startswith("_set_") or (name.startswith("_at_")
                                        and name.endswith("_point"))


def _stack_modules():
    return [ast.parse((SRC / "core" / name).read_text())
            for name in ("stacks.py", "stacks_ext.py")]


def test_stack_bytes_are_located_by_one_body_per_addressing():
    found = concrete_definitions(_stack_modules(), PER_THREAD["definitions"])
    over = {name: n for name, n in found.items()
            if n > PER_THREAD["definitions"][name]}
    assert not over, f"definitions over budget: {over}"


def test_private_frames_are_walked_by_one_loop():
    (alias,) = (node for node in _stack_modules()[0].body
                if isinstance(node, ast.ClassDef)
                and node.name == "MemoryAliasStacks")
    assert frame_loops(alias) <= PER_THREAD["frame_loops"]


def test_the_migrator_reads_no_key_of_a_stack_image():
    migration = ast.parse((SRC / "core" / "migration.py").read_text())
    assert not subscripted_keys(migration) & PER_THREAD["image_keys"]


def test_a_parked_rank_is_one_record_written_by_its_blocking_operation():
    for path in sorted((SRC / "ampi").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not names_mentioned(tree) & PER_THREAD["park_containers"], path
    context = ast.parse((SRC / "ampi" / "context.py").read_text())
    assert not {name for name in runtime_calls(context)
                if is_park_setter(name)}


def test_the_per_thread_scans_see_what_they_forbid():
    tree = ast.parse(
        "class MemoryAliasStacks(Base):\n"
        "    @abstractmethod\n"
        "    def pack(self, rec): ...\n"
        "    def unpack(self, image):\n"
        "        for i, frame in enumerate(rec.frames):\n"
        "            frame.write(0, image['contents'][i])\n"
        "        return b''.join(f.read(0, page) for f in rec.frames)\n"
        "    def evacuate(self, rec):\n"
        "        while self._waiting:\n"
        "            self.runtime._set_waiting(1)\n"
        "            runtime._at_migrate_point(2)\n"
        "            runtime._match(3)\n")
    assert concrete_definitions([tree, tree], ["pack", "unpack", "evacuate"]) \
        == {"pack": 0, "unpack": 2, "evacuate": 2}
    assert frame_loops(tree.body[0]) == 2
    assert subscripted_keys(tree) == {"contents"}
    assert "_waiting" in names_mentioned(tree)
    assert sorted(filter(is_park_setter, runtime_calls(tree))) == [
        "_at_migrate_point", "_set_waiting"]
    assert not is_park_setter("_match")


#: Where a fault travels.  Every channel the injector subscribes (in
#: ``FaultInjector._subscriptions``) is published — ``.decide("…")`` or
#: ``.filter("…")`` — by a runtime outside ``repro/chaos``: the injector
#: is a set of subscribers and nothing more (the checkpoint-barrier fault
#: once published its channel to itself from a callback the AMPI runtime
#: carried).  And the one function raising a ``ChaosError`` that names a
#: fault kind is the scripted validation: a kind a subscriber is handed
#: is one the table admitted, so no subscriber re-checks it.
PER_FAULT = {
    "subscriptions": ("chaos/injector.py", "_subscriptions"),
    "kind_refusals": {"chaos/faults.py": ["_check_scripted"]},
}


def subscribed_channels(tree, func_name):
    """The dotted channel names in function ``func_name`` of ``tree``."""
    (func,) = (fn for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == func_name)
    return [node.value for node in ast.walk(func)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "." in node.value]


def published_channels(tree):
    """Channels ``tree`` publishes: ``x.decide("c", …)``/``x.filter("c", …)``
    with a constant channel name."""
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("decide", "filter") and node.args
            and isinstance(node.args[0], ast.Constant)}


def kind_refusals(tree):
    """One entry per ``raise ChaosError(…)`` whose message text mentions a
    kind: the name of the function it is in."""
    def mentions_kind(call):
        return any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and "kind" in n.value for n in ast.walk(call))
    return [fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and callee(node.exc) == "ChaosError" and mentions_kind(node.exc)]


def test_every_fault_channel_is_a_runtimes_and_kinds_are_refused_once():
    rel, func_name = PER_FAULT["subscriptions"]
    subscribed = subscribed_channels(ast.parse((SRC / rel).read_text()),
                                     func_name)
    assert len(subscribed) == 5
    published, refusals = set(), {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        found = kind_refusals(tree)
        if found:
            refusals[path.relative_to(SRC).as_posix()] = found
        if path.relative_to(SRC).parts[0] != "chaos":
            published |= published_channels(tree)
    assert [ch for ch in subscribed if ch not in published] == []
    assert refusals == PER_FAULT["kind_refusals"]


def test_the_per_fault_scans_see_what_they_forbid():
    tree = ast.parse(
        "def _subscriptions(self):\n"
        "    return (('net.send', self.on_send), ('x.y', self.on_x))\n"
        "def publish(bus, name):\n"
        "    bus.decide('net.send', msg=1)\n"
        "    bus.filter(name, 2)\n"
        "    bus.has('x.y')\n"
        "def on_x(ev):\n"
        "    raise ChaosError(f'unknown x fault kind {ev.kind!r}')\n"
        "def on_y(ev):\n"
        "    raise ChaosError(f'{ev.kind!r} is not attached')\n")
    assert subscribed_channels(tree, "_subscriptions") == ["net.send", "x.y"]
    assert published_channels(tree) == {"net.send"}
    assert kind_refusals(tree) == ["on_x"]


#: attribute -> why it may be stored on ``self`` and never loaded.
#: Anything else a method assigns to ``self`` somewhere in ``src/repro``
#: must be read somewhere — product, tests, tools, examples, perf or
#: benchmarks — or it is bookkeeping nobody asked for (ten counter writes
#: per context switch were exactly that).
WRITE_ONLY_ALLOWED = {
    "evacuations_skipped": "fault-path tally: threads a partial evacuation "
                           "had to leave behind (Checkpointer.evacuate)",
    "operation": "ProtectionFault payload: an error's fields are its "
                 "public data for handlers",
}

READERS = ("src", "tests", "tools", "examples", "perf", "benchmarks")


def stored_on_self(tree):
    """Names ``X`` of every ``self.X = …`` / ``self.X += …`` in ``tree``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def loaded_names(tree):
    """Attribute names read in ``tree``: ``x.name`` in a load context, or
    ``getattr(x, "name", …)``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and callee(node) == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


def test_nothing_stored_on_self_goes_unread():
    root = SRC.parent.parent
    stored = set()
    for path in SRC.rglob("*.py"):
        stored |= stored_on_self(ast.parse(path.read_text()))
    loaded = set()
    for name in READERS:
        for path in (root / name).rglob("*.py"):
            loaded |= loaded_names(ast.parse(path.read_text()))
    assert stored - loaded == set(WRITE_ONLY_ALLOWED)


def test_the_write_only_scan_tells_a_store_from_a_load():
    tree = ast.parse(
        "class C:\n"
        "    def f(self, other):\n"
        "        self.count += 1\n"
        "        self.seen = other.peer = self.total\n"
        "        return getattr(self, 'lazy', 0)\n")
    assert stored_on_self(tree) == {"count", "seen"}
    assert loaded_names(tree) == {"total", "lazy"}
