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
``net.send`` filter only when it is subscribed (``PER_MESSAGE``); the
tracers' hooks append trace entries and count nothing (``PER_ENTRY``); a
thread image crosses the host per mapping and per image, never per page
or per field (``PER_IMAGE``); the host side derives what is fixed per
journal, per sweep and per cell in one place each (``PER_SWEEP``); a
migratable thread's facts — where its stack bytes are, what its image
weighs, why its rank is parked — have one owner each (``PER_THREAD``);
every channel the fault injector subscribes is a runtime's
(``PER_FAULT``); nothing stored on ``self`` goes unread
(``WRITE_ONLY_ALLOWED``); and nothing under ``src/`` switches the
cyclic collector off or down, or forces a collection (``GC_TUNING``);
one command-line entry point reads trace files (``TRACE_READERS``).  And the host stays
outside the simulation: which package may import ``heapq``, a clock,
``random``, ``multiprocessing`` or a pickler (``HOST_IMPORTS``); the
module-scope state is the reviewed import-time registries
(``MODULE_STATE``); host clocks are read by the reviewed functions and
every generator is seeded (``HOST_CLOCK``); no run queue is drained
outside ``repro.kernel`` (``RUN_QUEUE_NAMES``); and sweep workers hand
pools module-level targets and build runtimes per cell
(``RUNTIME_CONSTRUCTORS``).  Each of these scans ``src/repro`` and
``examples/`` (``MODULE_STATE``: all of ``src/repro``).
"""

import ast
import functools
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent


@functools.lru_cache(maxsize=None)
def scanned(examples=True):
    """``(label, tree)`` for every module of ``src/repro`` (labelled as
    ``exec/pool.py``) and, with ``examples``, of ``examples/``
    (``examples/quickstart.py``)."""
    paths = [(p.relative_to(SRC).as_posix(), p)
             for p in sorted(SRC.rglob("*.py"))]
    if examples:
        paths += [(f"examples/{p.name}", p)
                  for p in sorted((ROOT / "examples").glob("*.py"))]
    return tuple((label, ast.parse(p.read_text())) for label, p in paths)


def package(label):
    """The package a scanned module is in, whatever the file is called:
    ``kernel`` for ``kernel/pqueue.py``, ``errors`` for ``errors.py``."""
    return label.split("/")[0].removesuffix(".py")


def imported_names(tree):
    """``(line, dotted name)`` of each import in ``tree``, lazy in-function
    ones included (``from repro import x`` imports ``repro.x``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            names = ([f"repro.{a.name}" for a in node.names]
                     if node.module == "repro" else [node.module])
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names)

#: package -> the sibling packages (or top-level modules) it imports.
IMPORTS = {
    "ampi": {"balance", "core", "errors", "sim"},
    "analysis": set(),
    "balance": {"kernel"},
    "bench": {"balance", "bigsim", "core", "errors", "exec", "flows", "pose",
              "sim", "workloads"},
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
    for label, tree in scanned(examples=False):
        pkg = package(label)
        if pkg != "__init__":
            found.setdefault(pkg, set()).update(
                name.split(".")[1] for _, name in imported_names(tree)
                if name.startswith("repro.") and name.split(".")[1] != pkg)
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


#: The ``__main__`` modules that read a trace file: every verb over a
#: dumped trace (``report`` included) is ``python -m repro.query``'s.
TRACE_READERS = {"query/__main__.py"}


def reads_traces(tree):
    """Whether ``tree`` imports or calls ``load_trace``."""
    return any(
        isinstance(node, ast.ImportFrom)
        and any(a.name == "load_trace" for a in node.names)
        or isinstance(node, ast.Name) and node.id == "load_trace"
        or isinstance(node, ast.Attribute) and node.attr == "load_trace"
        for node in ast.walk(tree))


def test_one_command_line_reads_traces():
    found = {label for label, tree in scanned(examples=False)
             if label.endswith("__main__.py") and reads_traces(tree)}
    assert found == TRACE_READERS
    for expect in ("from repro.obs import load_trace",
                   "import repro.kernel.trace as t\nt.load_trace(p)"):
        assert reads_traces(ast.parse(expect)), expect
    assert not reads_traces(ast.parse("from repro.obs import build_report"))


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
#: field.  ``AddressSpace.read``/``write``/``memcpy_in`` contain no
#: ``yield`` and call no generator helper (``read``/``write`` resumed
#: ``_pages`` once per page; ``memcpy_in`` was the two of them, through
#: one whole-range byte string); each of their ``while`` loops turns
#: once per mapping (it calls ``mapping_at``)
#: and no ``for`` loop runs over a ``range`` of pages.  ``pack_value``'s
#: walk and ``unpack_value``'s mirror of it call no pupper method (a
#: ``PackingPupper`` ran ``int`` → ``_prim`` → ``_tick`` per field, an
#: ``UnpackingPupper`` the same per field read) and build no pupper.
PER_IMAGE = {
    "loads_and_stores": ("vm/addrspace.py", "AddressSpace",
                         {"read", "write", "memcpy_in"}),
    "value_walk": ("core/pup.py", {"pack_value", "_walk", "_kind",
                                   "unpack_value", "_unwalk"}),
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
    "ampi/runtime.py": ("AmpiRuntime", {"_send", "_enqueue"}),
    "core/ranks.py": ("RankProtocol", {"arrive", "take"}),
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


#: file -> the class whose ``_on_*`` hooks run once per trace entry.
#: A hook — and every method it reaches on ``self`` or ``super()`` —
#: appends its entry and attaches the busy/clock maps; it counts
#: nothing: no instrument ``.inc(``/``.observe(``/``.set(``, no
#: augmented assignment, no store into a counters mapping.  The entries
#: are the run's one record; every count is a fold over them
#: (``repro.obs.report.fold_metrics``, the query engines).
PER_ENTRY = {
    "kernel/trace.py": "KernelTracer",
    "obs/collect.py": "RunObserver",
}
INSTRUMENT_CALLS = {"inc", "observe", "set"}


def entry_road(cls):
    """``{name: FunctionDef}`` of the methods of ``cls`` a hook runs: its
    ``_on_*`` methods and, transitively, the methods of ``cls`` they call
    on ``self`` or ``super()``."""
    methods = {fn.name: fn for fn in cls.body
               if isinstance(fn, ast.FunctionDef)}

    def on_self(node):
        return ((isinstance(node, ast.Name) and node.id == "self")
                or (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "super"))

    road, todo = {}, [name for name in methods if name.startswith("_on_")]
    while todo:
        name = todo.pop()
        if name in road or name not in methods:
            continue
        road[name] = methods[name]
        todo += [node.func.attr for node in ast.walk(methods[name])
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and on_self(node.func.value)]
    return road


def per_entry_counting(func):
    """Descriptions of the counting ``func`` does: instrument calls,
    augmented assignments, and stores into a mapping or attribute that
    is named like a counter or read back by the stored value."""
    def counts_into(target, value):
        base = target.value if isinstance(target, ast.Subscript) else target
        text = ast.unparse(base)
        return "counter" in text or any(
            ast.unparse(n) == text for n in ast.walk(value)
            if isinstance(n, (ast.Name, ast.Attribute)))

    found = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in INSTRUMENT_CALLS):
            found.append((node.lineno, f".{node.func.attr}("))
        elif isinstance(node, ast.AugAssign):
            found.append((node.lineno, "augmented assignment"))
        elif isinstance(node, ast.Assign):
            targets = [t for target in node.targets
                       for t in getattr(target, "elts", [target])]
            if any(isinstance(t, (ast.Subscript, ast.Attribute))
                   and counts_into(t, node.value) for t in targets):
                found.append((node.lineno, "counter store"))
    return [f"{what} at line {line}" for line, what in sorted(found)]


def test_the_tracer_hooks_append_entries_and_count_nothing():
    seen = {}
    for rel, cls_name in PER_ENTRY.items():
        (cls,) = (node for node in ast.parse((SRC / rel).read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == cls_name)
        road = entry_road(cls)
        assert any(name.startswith("_on_") for name in road), cls_name
        for name, fn in road.items():
            seen[f"{cls_name}.{name}"] = per_entry_counting(fn)
    assert {name: found for name, found in seen.items() if found} == {}
    assert {"KernelTracer._entry", "RunObserver._charges",
            "RunObserver._flush_outside"} <= set(seen)


def test_the_per_entry_scan_sees_what_it_forbids():
    (cls,) = ast.parse(
        "class Tracer:\n"
        "    def _on_end(self, kernel, ev):\n"
        "        entry = self._entry(ev)\n"
        "        entry['skipped'] = True\n"
        "        busy[i] = p.busy_ns\n"
        "        entry['busy'], entry['clock'] = maps\n"
        "        self._c_dispatched.inc()\n"
        "        self._h_latency.observe(ev.time - entry['sent'])\n"
        "        self.registry.gauge('pe0.util').set(1.0)\n"
        "        self.counters['dispatched'] += 1\n"
        "        c = self.counters\n"
        "        c['skipped'] = c['skipped'] + 1\n"
        "        by_cat = c['by_category']\n"
        "        by_cat[cat] = by_cat.get(cat, 0) + 1\n"
        "        self.counters = {}\n"
        "        self.n = self.n + 1\n"
        "    def _entry(self, ev):\n"
        "        self.entries.append({'t': ev.time})\n"
        "        self._count()\n"
        "    def _count(self):\n"
        "        self.seen += 1\n"
        "    def finalize(self):\n"
        "        self.registry.counter('x').inc()\n").body
    road = entry_road(cls)
    assert sorted(road) == ["_count", "_entry", "_on_end"]
    assert per_entry_counting(road["_on_end"]) == [
        ".inc( at line 7", ".observe( at line 8", ".set( at line 9",
        "augmented assignment at line 10",
        "counter store at line 12", "counter store at line 14",
        "counter store at line 15", "counter store at line 16"]
    assert per_entry_counting(road["_entry"]) == []
    assert per_entry_counting(road["_count"]) == [
        "augmented assignment at line 21"]


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
#: the blocking operation itself — the one ``RankProtocol`` both
#: runtimes hold, beside which neither keeps a queue, park table or
#: barrier counter of its own.
PER_THREAD = {
    "definitions": {"evacuate": 2, "stack_read": 2, "stack_write": 2,
                    "pack": 3, "unpack": 3},
    "frame_loops": 0,
    "image_keys": {"contents", "slot", "heap_state", "stack_contents",
                   "heap_contents"},
    "park_containers": {"_waiting", "_wait_pred", "_at_migrate",
                        "_at_checkpoint", "_mailbox", "_barrier_count",
                        "_queues"},
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
    paths = [*(SRC / "ampi").glob("*.py"), *(SRC / "flows").glob("*.py"),
             SRC / "query" / "replay.py"]
    for path in sorted(paths):
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
        "        while self._waiting or world._mailbox[0]:\n"
        "            self.runtime._set_waiting(1)\n"
        "            runtime._at_migrate_point(2)\n"
        "            runtime._match(3)\n"
        "        _wait_pred = self._queues[rec] + _barrier_count\n"
        "        _at_migrate, _at_checkpoint = rec\n")
    assert concrete_definitions([tree, tree], ["pack", "unpack", "evacuate"]) \
        == {"pack": 0, "unpack": 2, "evacuate": 2}
    assert frame_loops(tree.body[0]) == 2
    assert subscripted_keys(tree) == {"contents"}
    assert PER_THREAD["park_containers"] <= names_mentioned(tree)
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
    for label, tree in scanned(examples=False):
        if found := kind_refusals(tree):
            refusals[label] = found
        if package(label) != "chaos":
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

READERS = ("src", "tests", "tools", "examples", "perf")


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
    stored = set()
    for _, tree in scanned(examples=False):
        stored |= stored_on_self(tree)
    loaded = set()
    for name in READERS:
        for path in (ROOT / name).rglob("*.py"):
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


#: Collector switches nothing under ``src/`` may throw.  A flow's host
#: cost is paid in objects the cyclic GC tracks (``tests/flows/
#: test_footprint.py`` counts them); turning the collector off or down
#: would hide that cost instead of removing it, for every program that
#: imports the package.  Nor may it force a collection: a finished run
#: frees itself by reference counting (``tests/test_lifetime.py``), and
#: a ``collect()`` would hide garbage instead of not making it.
GC_TUNING = {"disable", "freeze", "set_threshold", "collect"}


def gc_tuning_calls(tree):
    """``(line, name)`` of each ``gc.disable()``/``freeze``/
    ``set_threshold``/``collect`` call in ``tree``, through the module
    (any alias) or a name imported from it."""
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update((a.asname or a.name, a.name)
                             for a in node.names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            name = func.attr
        elif isinstance(func, ast.Name):
            name = functions.get(func.id)
        else:
            continue
        if name in GC_TUNING:
            found.append((node.lineno, name))
    return found


def test_nothing_in_src_tunes_the_collector():
    found = {label: calls for label, tree in scanned(examples=False)
             if (calls := gc_tuning_calls(tree))}
    assert found == {}


def test_the_gc_scan_sees_what_it_forbids():
    tree = ast.parse(
        "import gc\n"
        "import gc as collector\n"
        "from gc import freeze as hold\n"
        "gc.disable()\n"
        "collector.set_threshold(0)\n"
        "hold()\n"
        "gc.collect()\n"
        "gc.enable()\n"
        "pool.disable()\n"
        "freeze()\n")
    assert gc_tuning_calls(tree) == [(4, "disable"), (5, "set_threshold"),
                                     (6, "freeze"), (7, "collect")]


# -- the host stays outside the simulation ------------------------------------

def marked(source, scan):
    """Line numbers of ``source`` marked ``# expect: <scan>``."""
    return [n for n, text in enumerate(source.splitlines(), start=1)
            if text.endswith(f"# expect: {scan}")]


#: Host module -> the packages that may import it (``examples`` is the
#: examples directory).  Heap order is the kernel's (``MinHeap`` wraps
#: the one ``heapq``); a host clock is read only where host work is timed
#: or bounded (which functions: ``HOST_CLOCK``); ``random`` is imported
#: only to build a seeded ``random.Random``; only the sweep executor
#: starts processes; and nothing pickles — a cell crosses a process
#: boundary as plain data plus a runner's dotted name.
HOST_IMPORTS = {
    "heapq": {"kernel"},
    "time": {"bench", "examples", "exec", "flows", "serve"},
    "datetime": set(),
    "random": {"balance", "chaos", "flows"},
    "multiprocessing": {"exec"},
    "pickle": set(),
    "dill": set(),
    "cloudpickle": set(),
}


def host_imports(tree):
    """``(line, module)`` for each import of a ``HOST_IMPORTS`` module."""
    return sorted((line, name.split(".")[0])
                  for line, name in imported_names(tree)
                  if name.split(".")[0] in HOST_IMPORTS)


def test_host_modules_are_imported_by_the_reviewed_packages():
    found = {module: set() for module in HOST_IMPORTS}
    for label, tree in scanned():
        for _, module in host_imports(tree):
            found[module].add(package(label))
    assert found == HOST_IMPORTS


HOST_IMPORT_CASES = """\
import heapq  # expect: import
from heapq import heappush  # expect: import
import multiprocessing.pool  # expect: import
from pickle import dumps  # expect: import
import json
from repro.kernel import MinHeap
def later():
    import time  # expect: import
"""


def test_the_host_import_scan_sees_what_it_forbids():
    found = host_imports(ast.parse(HOST_IMPORT_CASES))
    assert [line for line, _ in found] == marked(HOST_IMPORT_CASES, "import")
    assert [package(label) for label in ("kernel/pqueue.py", "errors.py",
            "balance/kernel_heap.py", "examples/quickstart.py")] == [
        "kernel", "errors", "balance", "examples"]


#: ``file:name`` -> why a module-scope container that function bodies
#: mutate is not per-run state.  A module global lives as long as the
#: host process, so a table or counter mutated at run time carries one
#: run into the next (message ids once kept counting across runs, and
#: identical runs stopped replaying identically).  Each of these is a
#: registry written at import time only, refusing a second entry under
#: a name it holds.
MODULE_STATE = {
    "analysis/core.py:_RULES": "rule classes, by @register",
    "chaos/invariants.py:INVARIANTS": "checkers (state on the ChaosContext)",
    "core/pup.py:_REGISTRY": "puppable classes by wire name, pup_register",
    "sim/platform.py:PLATFORMS": "frozen machine models, by _register",
}

MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict",
                 "OrderedDict", "deque", "Counter"}
MUTATORS = {"append", "appendleft", "add", "update", "setdefault", "pop",
            "popitem", "popleft", "clear", "extend", "insert", "remove",
            "discard", "sort", "reverse"}


def module_state(tree):
    """``(line, name)`` of each module-scope container a function body
    mutates, and of each module-scope number one rebinds via ``global``."""
    containers, numbers = {}, {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or not stmt.value:
            continue
        value = stmt.value
        for target in (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target]):
            if not isinstance(target, ast.Name) or target.id.startswith("__"):
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                                  ast.DictComp, ast.SetComp)) or (
                    isinstance(value, ast.Call)
                    and callee(value) in MUTABLE_CALLS):
                containers[target.id] = stmt.lineno
            elif (isinstance(value, ast.Constant)
                    and type(value.value) in (int, float)):
                numbers[target.id] = stmt.lineno
    rebound, mutated = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                rebound.update(node.names)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and isinstance(node.func.value, ast.Name)):
                mutated.add(node.func.value.id)
            elif (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)):
                mutated.add(node.value.id)
    return sorted(
        [(line, name) for name, line in containers.items()
         if name in mutated | rebound]
        + [(line, name) for name, line in numbers.items() if name in rebound])


def test_module_state_is_the_reviewed_import_time_registries():
    found = {f"{label}:{name}" for label, tree in scanned(examples=False)
             for _, name in module_state(tree)}
    assert found == set(MODULE_STATE)


MODULE_STATE_CASES = """\
_MESSAGE_COUNTER = 0  # expect: state
def next_message_id():
    global _MESSAGE_COUNTER
    _MESSAGE_COUNTER += 1
HANDLERS = {}  # expect: state
def register_handler(tag, fn):
    HANDLERS[tag] = fn
IN_FLIGHT = []  # expect: state
def track(msg):
    IN_FLIGHT.append(msg)
SEEN: dict = dict()  # expect: state
forget = lambda key: SEEN.pop(key)
DEFAULT_LATENCY_NS = 6_500.0
TAGS = ("ampi", "thmig")
LAYOUT = {"stack_pages": 8}
def read_only():
    return LAYOUT["stack_pages"], DEFAULT_LATENCY_NS
class PerRunState:
    def bump(self):
        self.counter += 1
        self.registry["last"] = self.counter
"""


def test_the_module_state_scan_sees_what_it_forbids():
    found = module_state(ast.parse(MODULE_STATE_CASES))
    assert [line for line, _ in found] == marked(MODULE_STATE_CASES, "state")


#: file -> the functions in it that read a host clock or sleep on one.
#: Simulated time is the kernel's and a run is a function of its inputs
#: and seed; these time or bound host work only: a cell's and a sweep's
#: duration, the progress ETA, a client's wait for the service socket,
#: the flow-scale cell's wall time, the elapsed time the bench CLI and an
#: example print.  And every ``Random`` /
#: ``default_rng`` gets a seed; nothing draws from a process-global one.
HOST_CLOCK = {
    "bench/__main__.py": {"main"},
    "examples/bigsim_md.py": {"main"},
    "exec/executor.py": {"SweepExecutor.run"},
    "exec/pool.py": {"run_cell"},
    "exec/progress.py": {"ProgressReporter.__init__"},
    "flows/scale.py": {"compiled_scale_cell"},
    "serve/client.py": {"wait_until_up"},
}

CLOCKS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
          "perf_counter_ns", "process_time", "process_time_ns", "sleep"}
RNG_DRAWS = {"random", "randint", "randrange", "choice", "choices",
             "shuffle", "sample", "uniform", "gauss", "seed", "getrandbits",
             "rand", "randn", "integers", "normal", "permutation"}
RNG_CONSTRUCTORS = {"Random", "default_rng", "SystemRandom"}


def clock_reads(tree):
    """``(line, scope)`` of each mention of a ``time`` clock, called or
    passed along; the scope is the enclosing ``Class.method``/function,
    or ``<module>``."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "time"}
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "time"
                for a in node.names if a.name in CLOCKS}
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = node.name if scope == "<module>" else \
                f"{scope}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr in CLOCKS
                and getattr(node.value, "id", None) in modules) or (
                isinstance(node, ast.Name) and node.id in imported):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(found)


def unseeded_draws(tree):
    """Line of each draw from a process-global generator (``random.x()``,
    ``np.random.x()``, a draw imported from either) and of each generator
    built without a seed (or from OS entropy)."""
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("random", "numpy.random")
                for a in node.names if a.name in RNG_DRAWS}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, name = node.func, callee(node)
        if name in RNG_CONSTRUCTORS:
            seeds = node.args[:1] + [k.value for k in node.keywords
                                     if k.arg == "seed"]
            if name == "SystemRandom" or not seeds or (
                    isinstance(seeds[0], ast.Constant)
                    and seeds[0].value is None):
                found.append(node.lineno)
        elif name in RNG_DRAWS and (
                (isinstance(func, ast.Name) and func.id in imported)
                or (isinstance(func, ast.Attribute) and "random" in (
                    getattr(func.value, "id", None),
                    getattr(func.value, "attr", None)))):
            found.append(node.lineno)
    return sorted(found)


def test_host_clocks_are_read_where_reviewed_and_every_rng_is_seeded():
    clocks, unseeded = {}, {}
    for label, tree in scanned():
        if reads := clock_reads(tree):
            clocks[label] = {scope for _, scope in reads}
        if lines := unseeded_draws(tree):
            unseeded[label] = lines
    assert clocks == HOST_CLOCK
    assert unseeded == {}


HOST_CLOCK_CASES = """\
import random
import time
import numpy as np
from random import Random, shuffle
from time import perf_counter
def sample_latency(seed):
    rng = random.Random(seed)
    wait = rng.random()
    t0 = time.time()  # expect: clock
    t1 = perf_counter()  # expect: clock
    jitter = random.random()  # expect: rng
    fallback = Random()  # expect: rng
    also = random.Random(None)  # expect: rng
    good = Random(seed + 1)
    ints = np.random.default_rng(seed).integers(4)
    noise = np.random.rand(3)  # expect: rng
def shuffle_ranks(ranks, seed):
    shuffle(ranks)  # expect: rng
    random.Random(seed).shuffle(ranks)
class Pool:
    def close(self, proc, clock=time.monotonic):  # expect: clock
        time.sleep(0.1)  # expect: clock
"""


def test_the_clock_and_rng_scans_see_what_they_forbid():
    tree = ast.parse(HOST_CLOCK_CASES)
    reads = clock_reads(tree)
    assert [line for line, _ in reads] == marked(HOST_CLOCK_CASES, "clock")
    assert {scope for _, scope in reads} == {"sample_latency", "Pool.close"}
    assert unseeded_draws(tree) == marked(HOST_CLOCK_CASES, "rng")


#: Name fragments that make a container a run queue.  Draining one in a
#: loop outside ``repro.kernel`` is a second dispatch loop, which the
#: tracer, chaos hooks and stop policies cannot see.  A bounded buffer
#: drain (SDAG's ``buf``) is not a run loop, and its name says so.
RUN_QUEUE_NAMES = ("ready", "runq", "run_queue", "queue", "event")

#: Constructors of live runtime state.  A sweep worker module (in
#: ``repro.exec``, or importing ``multiprocessing``) calls none at import
#: time — warm state every worker would inherit — and hands another
#: process a module-level function, never a lambda or a nested ``def``.
RUNTIME_CONSTRUCTORS = {
    "AmpiRuntime", "CharmRuntime", "EventKernel", "Cluster", "ChaosRunner",
    "PoseEngine", "BigSimEngine", "FaultInjector", "CthScheduler", "HookBus",
    "LBManager", "Checkpointer", "ThreadMigrator",
}
POOL_CALLS = {"Process", "submit", "apply_async", "map", "map_async",
              "starmap", "imap", "imap_unordered"}


def drain_loops(tree):
    """Line of each ``<run queue>.popleft()`` / ``.pop(0)`` in a ``while``."""
    def drains(node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            return False
        receiver = node.func.value
        name = getattr(receiver, "attr", getattr(receiver, "id", "")).lower()
        args = [getattr(arg, "value", arg) for arg in node.args]
        return any(frag in name for frag in RUN_QUEUE_NAMES) and (
            (node.func.attr, args) in (("popleft", []), ("pop", [0])))
    return sorted({node.lineno for loop in ast.walk(tree)
                   if isinstance(loop, ast.While)
                   for node in ast.walk(loop) if drains(node)})


def worker_impurities(tree):
    """Line of each lambda or nested ``def`` handed to a pool call, and of
    each runtime constructed at import time (outside every ``def``)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = ({node.name for node in ast.walk(tree) if isinstance(node, defs)}
              - {node.name for node in tree.body if isinstance(node, defs)})
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and callee(node) in POOL_CALLS:
            found |= {arg.lineno for arg in node.args + [
                k.value for k in node.keywords
                if k.arg in (None, "target", "func", "fn")]
                if isinstance(arg, ast.Lambda)
                or getattr(arg, "id", None) in nested}

    def at_import(node):
        if isinstance(node, (*defs, ast.Lambda)):
            return
        if isinstance(node, ast.Call) and callee(node) in RUNTIME_CONSTRUCTORS:
            found.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            at_import(child)

    at_import(tree)
    return sorted(found)


def test_no_run_queue_is_drained_outside_the_kernel():
    found = {label: lines for label, tree in scanned()
             if package(label) != "kernel" and (lines := drain_loops(tree))}
    assert found == {}


def test_sweep_workers_get_module_level_targets_and_build_runtimes_per_cell():
    workers = {label for label, tree in scanned() if package(label) == "exec"
               or "multiprocessing" in {m for _, m in host_imports(tree)}}
    assert "exec/pool.py" in workers
    found = {label: lines for label, tree in scanned()
             if label in workers and (lines := worker_impurities(tree))}
    assert found == {}


#: Multiprocessing channels that more than one process writes: a queue's
#: pipe is shared by every process that puts to it, under one lock, and
#: a manager's by every proxy.  A worker that dies holding the lock or
#: half a message blocks every other writer, so ``repro.exec`` gives each
#: worker a pipe of its own and constructs none of these.
SHARED_CHANNELS = {"Queue", "SimpleQueue", "JoinableQueue", "Manager"}


def shared_channels(tree):
    """Line of each call that builds a ``SHARED_CHANNELS`` object, however
    it is reached (``ctx.Queue()``, ``multiprocessing.Manager()``, an
    imported name)."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and callee(node) in SHARED_CHANNELS)


def test_no_exec_channel_has_two_writers():
    found = {label: lines for label, tree in scanned(examples=False)
             if package(label) == "exec" and (lines := shared_channels(tree))}
    assert found == {}


SHARED_CHANNEL_CASES = """\
import multiprocessing
from multiprocessing import Manager, SimpleQueue
class LocalPool:
    def run(self, cells):
        result_q = self._ctx.Queue()  # expect: channel
        conn, child_end = self._ctx.Pipe()
        return result_q, conn
class _Worker:
    def __init__(self, ctx, token, result_q):
        self.task_q = ctx.SimpleQueue()  # expect: channel
        self.done_q = multiprocessing.JoinableQueue()  # expect: channel
        self.shared = Manager().dict()  # expect: channel
        self.local = SimpleQueue()  # expect: channel
        self.queued = result_q.put(("ready", token, None, None))
"""


def test_the_shared_channel_scan_sees_what_it_forbids():
    found = shared_channels(ast.parse(SHARED_CHANNEL_CASES))
    assert found == marked(SHARED_CHANNEL_CASES, "channel")


DRAIN_CASES = """\
def drain(ready):
    while ready:
        ready.popleft().run()  # expect: drain
class Scheduler:
    def loop(self):
        while self.run_queue:
            self.run_queue.pop(0).fire()  # expect: drain
    def loop_nested(self):
        while True:
            while self.events:
                self.events.popleft()()  # expect: drain
def sdag_style_buffer_drain(buf, got, count):
    while buf and len(got) < count:
        got.append(buf.popleft())
def stack_pop_is_fine(stack):
    while stack:
        stack.pop()
def popleft_outside_a_loop(queue_like):
    return queue_like.popleft() if queue_like else None
"""

WORKER_CASES = """\
import multiprocessing
from repro.chaos import ChaosRunner
def run_cell(params, seed):
    runner = ChaosRunner(params["workload"])
    return {"seed": seed, "runner": runner.workload}
WARM_RUNNER = ChaosRunner("stencil")  # expect: worker
if __debug__:
    WARM_KERNEL = EventKernel()  # expect: worker
class Cells:
    RUNNER = ChaosRunner("ring")  # expect: worker
def launch(pool):
    def closure_target(cell):
        return cell
    a = multiprocessing.Process(target=closure_target)  # expect: worker
    b = multiprocessing.Process(target=lambda: 0)  # expect: worker
    c = multiprocessing.Process(target=run_cell)
    d = pool.submit(run_cell, {})
    e = pool.map(lambda cell: cell, [])  # expect: worker
"""


def test_the_drain_scan_sees_what_it_forbids():
    assert drain_loops(ast.parse(DRAIN_CASES)) == marked(DRAIN_CASES, "drain")


def test_the_worker_scan_sees_what_it_forbids():
    assert worker_impurities(ast.parse(WORKER_CASES)) == marked(
        WORKER_CASES, "worker")


#: One road from a load-balancing decision to a moved rank.  A strategy
#: gets every measurement it reads as an argument of ``map_objects``: it
#: has no ``set_*`` feed for the manager to find with ``getattr``.  And a
#: fresh thread's register image is seeded only through its stack
#: manager (``_seed_inactive``): ``MinimalSwap.seed_context`` writes
#: through whatever is mapped at the stack's address, which under k-slot
#: aliasing is the running thread's live stack.
ONE_ROAD = {
    "balance/strategies.py": "setter",
    "balance/manager.py": "probe",
    "core/scheduler.py": "seed",
}


def setter_methods(tree):
    """Line of each method named ``set_*``."""
    return sorted(fn.lineno for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name.startswith("set_"))


def strategy_probes(tree):
    """Line of each ``getattr``/``hasattr`` on a ``strategy``."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and callee(n) in ("getattr", "hasattr") and n.args
                  and "strategy" in (getattr(n.args[0], "id", None),
                                     getattr(n.args[0], "attr", None)))


def seed_context_calls(tree):
    """Line of each call of a ``seed_context``."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and callee(n) == "seed_context")


ONE_ROAD_SCANS = {"setter": setter_methods, "probe": strategy_probes,
                  "seed": seed_context_calls}


def test_one_road_from_a_balancing_decision_to_a_seeded_stack():
    found = {path: lines for path, scan in ONE_ROAD.items()
             if (lines := ONE_ROAD_SCANS[scan](
                 ast.parse((SRC / path).read_text())))}
    assert found == {}


ONE_ROAD_CASES = """\
class Strategy:
    def set_pe_speeds(self, speeds):  # expect: setter
        self.speeds = speeds
    def map_objects(self, loads, current, npes, *, speeds=None):
        return settle(loads)
def set_module_level(x):
    return x
def rebalance(self):
    feed = getattr(self.strategy, "set_comm_graph", None)  # expect: probe
    if hasattr(strategy, "set_pe_speeds"):  # expect: probe
        name = getattr(self.db, "npes")
    MinimalSwap.seed_context(space, arch, ctx, top)  # expect: seed
    self.swap.seed_context(space, arch, ctx, top)  # expect: seed
    self._seed_inactive(thread, ctx)
"""


def test_the_one_road_scans_see_what_they_forbid():
    tree = ast.parse(ONE_ROAD_CASES)
    for scan, fn in ONE_ROAD_SCANS.items():
        assert fn(tree) == marked(ONE_ROAD_CASES, scan), scan


#: One creation road, a run at a time.  A loop that creates flows one
#: call at a time pays every layer under the mechanism once per flow;
#: ``create_flows(count)`` asks each layer once per run, and
#: ``create_flow()`` is its run of one — never a loop's body.  The
#: stack reservation has one road too: ``_reserve_stacks(count, ...)``
#: (a run of one for pthread and N:M), with no per-flow twin.
LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
              ast.DictComp, ast.GeneratorExp)


def looped_creations(tree):
    """Line of each ``create_flow`` call inside a loop or comprehension."""
    return sorted({n.lineno for loop in ast.walk(tree)
                   if isinstance(loop, LOOP_NODES)
                   for n in ast.walk(loop)
                   if isinstance(n, ast.Call) and callee(n) == "create_flow"})


def per_flow_stack_roads(tree):
    """Line of each definition or use of a ``_reserve_stack``."""
    return sorted({n.lineno for n in ast.walk(tree)
                   if (isinstance(n, ast.FunctionDef)
                       and n.name == "_reserve_stack")
                   or (isinstance(n, ast.Attribute)
                       and n.attr == "_reserve_stack")
                   or (isinstance(n, ast.Name) and n.id == "_reserve_stack")})


CREATION_SCANS = {"looped": looped_creations,
                  "stack": per_flow_stack_roads}


def test_flows_are_created_a_run_at_a_time_through_one_stack_road():
    found = {(label, scan): lines for label, tree in scanned(examples=False)
             for scan, fn in CREATION_SCANS.items() if (lines := fn(tree))}
    assert found == {}


CREATION_CASES = """\
def populate(mech, n):
    while mech.n_flows < n:
        mech.create_flow()  # expect: looped
    for _ in range(n):
        if mech.n_flows < n:
            mech.create_flow()  # expect: looped
    return [mech.create_flow() for _ in range(n)]  # expect: looped
def one(mech):
    mech.create_flows(3)
    return mech.create_flow()
class Flow:
    def _reserve_stack(self, nbytes, tag):  # expect: stack
        return self._reserve_stacks(1, nbytes, tag)
    def _create(self, index):
        return self._reserve_stack(16384, "t")  # expect: stack
"""


def test_the_creation_scans_see_what_they_forbid():
    tree = ast.parse(CREATION_CASES)
    for scan, fn in CREATION_SCANS.items():
        assert fn(tree) == marked(CREATION_CASES, scan), scan


#: One road that makes mappings and one that destroys them.  In
#: ``AddressSpace`` only the core, ``_map``, carves a region's free list
#: (``allocate_run``/``allocate_fixed``) or adds to the live index
#: (``_mappings``/``_starts``); only the release road — ``release_run``
#: and the ``_give_back`` it shares with a refused ``_map`` — returns
#: ranges to a free list (``release``) or drops entries from the index.
#: ``mmap`` and ``reserve_run`` are the core's runs, ``munmap`` is a
#: ``release_run`` of one: none of them keeps its own copy.
MAPPING_ROADS = {"carve": {"_map"}, "insert": {"_map"},
                 "release": {"_give_back"}, "drop": {"release_run"}}
INDEXES = {"_mappings", "_starts"}


def mapping_road_steps(cls):
    """``(line, step)`` of each free-list carve or release, and each
    insertion into or removal from the live index (through ``self.`` or
    a local name bound to it), in a method of ``cls`` that is not the
    road ``MAPPING_ROADS`` gives that step."""
    found = []
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
                   and isinstance(n.value, ast.Attribute)
                   and n.value.attr in INDEXES
                   for t in n.targets if isinstance(t, ast.Name)}

        def index(node):
            return (isinstance(node, ast.Attribute) and node.attr in INDEXES
                    or isinstance(node, ast.Name) and node.id in aliases)

        for node in ast.walk(fn):
            step = None
            if isinstance(node, ast.Call):
                name = callee(node)
                if name in ("allocate", "allocate_run", "allocate_fixed"):
                    step = "carve"
                elif name == "release":
                    step = "release"
                elif name in ("insort", "insort_left", "insort_right"):
                    step = "insert" if index(node.args[0]) else None
                elif isinstance(node.func, ast.Attribute) and index(
                        node.func.value):
                    step = {"append": "insert", "extend": "insert",
                            "insert": "insert", "update": "insert",
                            "setdefault": "insert", "pop": "drop",
                            "remove": "drop", "clear": "drop"}.get(name)
            elif isinstance(node, ast.AugAssign) and index(node.target):
                step = "insert"
            elif isinstance(node, (ast.Assign, ast.Delete)) and any(
                    isinstance(t, ast.Subscript) and index(t.value)
                    for t in node.targets):
                step = "drop" if isinstance(node, ast.Delete) else "insert"
            if step and fn.name not in MAPPING_ROADS[step]:
                found.append((node.lineno, step))
    return sorted(found)


def test_one_road_makes_mappings_and_one_destroys_them():
    tree = ast.parse((SRC / "vm" / "addrspace.py").read_text())
    (space,) = (node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "AddressSpace")
    assert mapping_road_steps(space) == []


MAPPING_ROAD_CASES = """\
class AddressSpace:
    def mmap(self, length, region, addr):
        start = self._free[region].allocate(length, 4096)  # expect: carve
        self._free[region].allocate_fixed(addr, length)  # expect: carve
        self._mappings[start] = Mapping(start, length)  # expect: insert
        starts = self._starts
        bisect.insort(starts, start)  # expect: insert
        starts.append(start)  # expect: insert
        self._starts += [start]  # expect: insert
        self._free[region].release(start, length)  # expect: release
        return self._mappings[start]
    def munmap(self, m):
        self._free[m.region].release(m.start, m.length)  # expect: release
        live = self._mappings
        del live[m.start]  # expect: drop
        self._starts.pop()  # expect: drop
        del self._starts[0]  # expect: drop
    def _map(self, count, length, bases):
        for base in self._region_free("heap").allocate_run(count, length):
            self._mappings[base] = Mapping(base, length)
        starts = self._starts
        starts += bases
        starts.sort()
    def release_run(self, gone):
        live = self._mappings
        for m in gone:
            del live[m.start]
        self._give_back(gone)
        del self._starts[:len(gone)]
    def _give_back(self, ranges):
        for m in ranges:
            self._free[m.region].release(m.start, m.length)
    def mapping_at(self, address):
        starts = self._starts
        i = bisect.bisect_right(starts, address) - 1
        physical.release_frames(self._mappings[starts[i]].frames)
        return self._mappings[starts[i]]
"""


def test_the_mapping_road_scan_sees_what_it_forbids():
    (space,) = ast.parse(MAPPING_ROAD_CASES).body
    found = mapping_road_steps(space)
    for step in MAPPING_ROADS:
        assert [line for line, s in found if s == step] == marked(
            MAPPING_ROAD_CASES, step), step
