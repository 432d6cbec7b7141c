"""What a run loads: NumPy arrives with the first array, not before.

An ``ndarray`` cannot exist unless ``numpy`` is already imported, so the
modules that only *recognise* arrays (``repro.core.pup``'s value codec,
``repro.ampi.datatypes``' wire sizes and reductions) look the type up in
``sys.modules`` and never import it; the code that *builds* arrays
(``repro.workloads.stencil``) imports NumPy in the functions that do.
``repro.chaos.workloads`` is the one module-scope importer: its cells
compute with arrays.

The check runs in a fresh interpreter, since this test process has long
since loaded NumPy: it imports every ``repro`` module outside
``repro.chaos`` (``__main__`` entry points excepted), runs one small pass
down each array-free road the benchmark's workloads take, and asserts
NumPy is still not loaded.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

SCRIPT = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    import repro

    def import_all(pkg):
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            if info.name == "repro.chaos" or info.name.endswith(".__main__"):
                continue
            module = importlib.import_module(info.name)
            if info.ispkg:
                import_all(module)

    import_all(repro)
    assert "repro.chaos" not in sys.modules

    from repro.balance import GreedyLB
    from repro.core.pup import pack_value, unpack_value
    from repro.flows import FlowWorld, UserThreadFlow, probe_limit
    from repro.flows.programs import ring_program
    from repro.sim import Processor, get_platform
    from repro.workloads import BTMZConfig, run_btmz

    # BT-MZ under AMPI, with at least one migration (thread image packed
    # by pack_value, rebuilt by unpack_value).
    assert run_btmz(BTMZConfig("S", 4, 2, iterations=2),
                    GreedyLB()).migrations > 0
    # A compiled ring on a FlowWorld.
    world = FlowWorld(4)
    world.spawn("compiled", ring_program(4, 2))
    assert world.run() > 0
    # A Cth limit probe (Table 2).
    proc = Processor(0, get_platform("linux_x86"))
    assert probe_limit(UserThreadFlow(proc), cap=50).count == 50
    # The value codec.
    tree = {"k": [1, 2.5, None, True, b"x", ("t", -3)]}
    assert unpack_value(pack_value(tree)) == tree

    loaded = sorted(n for n in sys.modules
                    if n == "numpy" or n.startswith("numpy."))
    print(len(loaded), loaded[:5])
""")


def test_array_free_runs_never_load_numpy():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "0 []", proc.stdout
