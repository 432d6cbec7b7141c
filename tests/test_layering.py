"""The package import graph, pinned (``docs/architecture.md`` §5).

The layers are load-bearing: the kernel knows nothing above it, the
thread core knows no runtime built on it, and ``repro.flows`` hosts
only the two forms the compiler relates — event-driven objects live
once, in ``repro.charm``.  The whole edge list is data here, so a new
edge (upward or not) is a reviewed diff rather than an accident.  AST
scan only: nothing is imported, lazy in-function imports count.  One
more structural rule rides on the same scan: ``repro.vm``'s extent
operations contain no per-page loop (``PER_PAGE_LOOPS``).
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: package -> the sibling packages (or top-level modules) it imports.
IMPORTS = {
    "ampi": {"balance", "core", "errors", "sim"},
    "analysis": set(),
    "balance": {"errors", "kernel", "obs"},
    "bench": {"balance", "bigsim", "core", "errors", "exec", "flows", "sim",
              "workloads"},
    "bigsim": {"ampi", "balance", "errors", "workloads"},
    "chaos": {"ampi", "balance", "core", "errors", "workloads"},
    "charm": {"core", "errors", "kernel", "sim"},
    "core": {"errors", "kernel", "sim", "vm"},
    "errors": set(),
    "exec": {"bench", "chaos", "errors", "kernel"},
    "flows": {"analysis", "core", "errors", "kernel", "sim"},
    "kernel": {"errors"},
    "obs": {"errors", "kernel", "query"},
    "pose": {"core", "errors", "sim"},
    "query": {"chaos", "errors", "flows", "kernel", "obs"},
    "serve": {"errors", "exec", "kernel", "obs"},
    "sim": {"errors", "kernel", "vm"},
    "vm": {"errors"},
    "workloads": {"ampi", "balance", "charm", "core", "errors", "flows",
                  "sim"},
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
