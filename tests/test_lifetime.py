"""A finished run is freed by reference counting: no reference cycles.

The paper's migratable thread is its stack and heap, released when the
thread exits (§3.4).  Here a run's whole graph — runtime, machine,
threads, images, subscribers — must go the moment its last outside
reference does, not at the next full collection.  Each case builds a
graph, finishes it, drops it, and counts what only the cyclic collector
could free (``tests/gccount.py``); every count is 0.  The count each
case read before the back-edges were cut is in brackets.

Where the edges are cut (``docs/architecture.md`` § Object lifetime):

* a thread's, when it exits — ``CthScheduler._finish`` drops the body
  and the generator, an AMPI rank drops its world communicator;
  a flow task drops its world and args tuple;
* a runtime's, when ``run()`` returns with every rank finished —
  ``AmpiRuntime._retire``;
* a kernel slot's handle, when the event fires or is cancelled;
* a lowered function's edge to its compiler (``compile_flow``);
* a subscriber (tracer, observer, injector) holds what it subscribes to
  only weakly, and so do the ``pose`` and ``charm`` handlers each
  processor holds its ``PoseEngine`` or ``CharmRuntime`` by
  (``repro.sim.weak_handler``), and a chare's proxies their runtime.

A partial or failed run keeps its graph: replay reads it.
"""

import ast
import json

import pytest

from repro.ampi import AmpiRuntime
from repro.balance import RotateLB
from repro.bench.ablations import pose_throttle_run
from repro.bigsim import BigSimEngine, TargetMachine
from repro.chaos import STANDARD_RATES
from repro.charm import Chare, CharmRuntime, Overlap, When
from repro.errors import CommError
from repro.exec.runners import run_chaos_cell
from repro.flows import (CompiledContinuationFlow, UserThreadFlow,
                         compile_flow)
from repro.flows.programs import ring_program
from repro.flows.runtime import FlowWorld
from repro.flows.stencil import stencil_program
from repro.kernel import KernelTracer
from repro.obs.collect import RunObserver
from repro.pose import PoseEngine
from repro.query.replay import parse_runspec, replay_at
from repro.sim import Cluster, Processor, get_platform
from repro.workloads import BTMZConfig
from repro.workloads.btmz import make_btmz_main
from repro.workloads.md import MDConfig, MDWorkload
from repro.workloads.stencil_chare import (start_stencil_chares,
                                           stencil_chare_results)
from tests.gccount import cyclic_garbage

PROGRAMS = {"ring": ring_program(6, 3, 1),
            "stencil": stencil_program(6, cells=4, steps=3, seed=1)}


def _storm(technique):
    """BT-MZ class A, 8 ranks on 4 PEs, every rank migrating every step
    (``RotateLB``) and a coordinated checkpoint every 2 of 4 steps."""
    cfg = BTMZConfig("A", 8, 4, iterations=4)
    return AmpiRuntime(4, 8, make_btmz_main(cfg, checkpoint_period=2),
                       strategy=RotateLB(), technique=technique)


def _read_everything(rt):
    """Every post-run reader still answers after the edges are cut."""
    assert rt.done
    assert rt.makespan_ns > 0
    assert len(rt.pe_of_ranks()) == rt.num_ranks
    assert [row[0] for row in rt.rank_profile()] == list(range(8))
    assert "checkpoints      : 16" in rt.summary()
    assert rt.migrator.migrations_completed == 32
    assert rt.checkpointer.checkpoints_taken == 16
    for rank, key in rt.last_checkpoint.items():
        assert rt.checkpointer.stored(key).name == f"rank{rank}"


@pytest.mark.parametrize("form", ["thread", "compiled"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_a_finished_flow_world_leaves_no_cycle(program, form):
    # [ring: thread 41, compiled 1 036; stencil: 48, 1 050 — a compiled
    # spawn compiled its own copy of the program each time]
    def act():
        world = FlowWorld(PROGRAMS[program].ranks)
        world.spawn(form, PROGRAMS[program])
        world.run()
        assert world.finished == world.ranks
    assert cyclic_garbage(act) == {}


def test_a_dropped_compiled_flow_leaves_no_syntax_tree_in_a_cycle():
    # [1 001 objects, 421 of them ``ast`` nodes: the ``_Compiler`` <->
    # ``_FunctionLowering`` back-edge and the recursive closures of
    # ``suspend_points`` and ``fuse`` held the parsed file]
    # What stays is the exec'd namespace <-> generated frame class cycle
    # (and the standard library's own recursive closure in
    # ``ast.fix_missing_locations``): no tree, no lowering.
    def act():
        assert compile_flow(PROGRAMS["ring"].body).n_states > 0
    garbage = cyclic_garbage(act)
    held = [name for name in garbage
            if isinstance(getattr(ast, name, None), type)
            and issubclass(getattr(ast, name), ast.AST)
            or name in ("_Compiler", "_FunctionLowering", "SuspendPoint")]
    assert held == []


@pytest.mark.parametrize("mechanism",
                         [UserThreadFlow, CompiledContinuationFlow])
def test_a_mechanism_workload_run_leaves_no_cycle(mechanism):
    # [UserThreadFlow 41, CompiledContinuationFlow 1 036]
    def act():
        run = mechanism(Processor(0, get_platform("linux_x86"))
                        ).run_workload(PROGRAMS["ring"], real_flows=True)
        assert len(run.results) == run.ranks
    assert cyclic_garbage(act) == {}


@pytest.mark.parametrize("technique",
                         ["isomalloc", "stack_copy", "memory_alias"])
def test_a_finished_runtime_leaves_no_cycle(technique):
    # [isomalloc 413, stack_copy 473, memory_alias 465]
    def act():
        rt = _storm(technique)
        rt.run()
        _read_everything(rt)
    assert cyclic_garbage(act) == {}


def test_a_finished_bigsim_engine_leaves_no_cycle():
    # [1 355: the engine's ``_main`` is the runtime's ``main``]
    dims = (4, 4, 5)

    def act():
        engine = BigSimEngine(4, TargetMachine(dims=dims),
                              MDWorkload(MDConfig(dims=dims)), steps=1)
        assert engine.run().host_ns_per_step > 0
    assert cyclic_garbage(act) == {}


def test_a_finished_pose_run_leaves_no_cycle():
    # [67: every processor's ``pose`` handler was the engine's bound
    # method, and the engine holds the cluster]
    def act():
        _, stats = pose_throttle_run(None)
        assert stats.rollbacks > 0
    assert cyclic_garbage(act) == {}


def test_a_pose_message_after_its_engine_is_freed_is_refused():
    cluster = Cluster(2)
    PoseEngine(cluster)                     # dropped at once
    cluster.send(0, 1, None, 8, tag="pose")
    with pytest.raises(CommError, match="processor 1 after its engine"):
        cluster.run()


class _SdagStrip(Chare):
    """Figure 1's life cycle in SDAG on a ring, three iterations."""

    def __init__(self):
        self.got = []

    def lifecycle(self):
        n = len(self.thisProxy)
        for i in range(3):
            self.thisProxy[(self.thisIndex - 1) % n].send("from_right", i)
            self.thisProxy[(self.thisIndex + 1) % n].send("from_left", i)
            self.got.append((yield Overlap(When("from_left"),
                                           When("from_right"))))


def _hand_inverted_stencil(rt):
    proxy = start_stencil_chares(rt, 8, steps=4)
    rt.run()
    assert len(stencil_chare_results(rt, proxy)) == 8


def _sdag_stencil(rt):
    proxy = rt.create_array(_SdagStrip, 8)
    proxy.broadcast("lifecycle")
    rt.run()
    assert rt.element(proxy.aid, 7).got == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("stencil", [_hand_inverted_stencil, _sdag_stencil])
def test_a_finished_charm_run_leaves_no_cycle(stencil):
    # [hand-inverted 142, SDAG 167: every processor's ``charm`` handler
    # was the runtime's bound method, and each chare held the runtime
    # and a proxy that held it again]
    def act():
        stencil(CharmRuntime(Cluster(4)))
    assert cyclic_garbage(act) == {}


def test_a_charm_proxy_or_message_after_its_runtime_is_freed_is_refused():
    cluster = Cluster(2)
    proxy = CharmRuntime(cluster).create_array(_SdagStrip, 2)   # dropped
    with pytest.raises(CommError, match="a0 outlived its runtime"):
        proxy[1].send("lifecycle")
    cluster.send(0, 1, None, 8, tag="charm")
    with pytest.raises(CommError, match="processor 1 after its runtime"):
        cluster.run()


def test_a_traced_run_makes_no_cycle_alive_or_dropped():
    kept = []

    def act():
        rt = _storm("isomalloc")
        observer = RunObserver.for_ampi(rt).attach()
        tracer = KernelTracer().attach(rt.schedulers[0].kernel)
        rt.run()
        _read_everything(rt)
        assert observer.finalize().counter("kernel.dispatched").value > 0
        assert tracer.entries
        kept.append((rt, observer, tracer))

    # While alive: no fired slot and its handle in a cycle, holding the
    # event's args [920].
    assert cyclic_garbage(act) == {}
    # Dropped, both runs: no subscriber holding its kernel [1 278].
    assert cyclic_garbage(kept.clear, warm=False) == {}


@pytest.mark.parametrize("workload, seed", [
    ("btmz", 3),          # a crash, recovered from checkpoints
    ("btmz", 5),          # an evacuation
    ("samplesort", 8),    # collectives and a crash
    ("stencil", 7),
])
def test_a_passing_chaos_cell_leaves_no_cycle(workload, seed):
    # [btmz 3: 267, btmz 5: 271, samplesort 8: 362, stencil 7: 329 —
    # the runtime, and the injector on its bus with its checker hook]
    def act():
        row = run_chaos_cell({"workload": workload,
                              "config": dict(STANDARD_RATES)}, seed)
        assert row["outcome"] == "pass"
    assert cyclic_garbage(act) == {}


def test_a_partial_run_keeps_its_graph_and_replays_byte_identically():
    spec = parse_runspec("chaos:btmz:seed=3")
    first = json.dumps(replay_at(spec, "250000"), sort_keys=True)
    assert json.dumps(replay_at(spec, "250000"), sort_keys=True) == first

    rt = _storm("isomalloc")
    rt.run(until=250_000.0)
    assert not rt.done and rt.main is not None    # nothing cut
    rt.run()                                      # and it finishes
    _read_everything(rt)
    assert rt.main is None
