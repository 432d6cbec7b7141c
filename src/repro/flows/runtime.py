"""Workload execution for flow mechanisms: one kernel, two frontends.

A thread body and the event form the compiler derives from it must run
*the same program* before their costs and limits can be compared
honestly.  This module is the shared substrate: a :class:`FlowWorld`
owns one fast-path :class:`~repro.kernel.EventKernel` plus per-rank
mailboxes, and drives

* **generator tasks** — UThread-style bodies (``def main(mpi)``
  generators speaking the directive protocol) trampolined one resume
  per kernel event;
* **compiled tasks** — the same bodies after
  :mod:`repro.flows.compile` turned them into flat continuation state
  machines (no generator frames, no Python stacks held across
  suspends).

The *hand-written* event form (the paper's "awkward but unbounded"
Section 2.4 shape) is a chare and lives on the chare runtime:
:mod:`repro.workloads.stencil_chare` over :mod:`repro.charm`.

Trace-identity contract (pinned by ``tests/flows/test_differential.py``):
a generator task and its compiled translation produce **byte-identical
kernel traces**.  Both forms dispatch through the single
:meth:`FlowWorld._resume` site, post with the same ``(time=0.0,
category="flow.resume", flow="r<rank>")`` labels in the same order, and
a receive whose message is already queued continues synchronously in
both (no kernel event).  Bulk transitions — seeding all ranks, barrier
release — go through ``post_batch``.

One pass per message (pinned by ``tests/flows/test_message_budget.py``):
a mailbox entry is the plain tuple ``(src, tag, data)``;
:meth:`FlowContext.send` range-checks, appends and tests the
destination's ``(source, tag)`` wait inline, posting the resume itself;
``recv``/``op_recv`` scan their own mailbox with inline comparisons and
write ``_waiting[rank]`` directly.  Each task carries its ``(task,)``
kernel args tuple once, so no post builds one.

Cost model: the world charges ``dispatch_cost_ns`` (the owning
mechanism's modeled switch cost) per dispatch into
:attr:`FlowWorld.modeled_switch_ns`, and bodies charge their compute
via ``mpi.charge`` into :attr:`FlowWorld.work_ns`.  Neither appears in
the trace, so mechanisms with different cost models still compare
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.flows.compile import compile_flow
from repro.kernel import EventKernel

__all__ = [
    "FlowProgram",
    "FlowContext",
    "FlowWorld",
    "WorkloadRun",
    "DONE",
    "SUSPENDED",
]


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self._name}>"


#: Returned by a continuation state when its task finished.
DONE = _Sentinel("flow-done")
#: Returned by a continuation state after parking a resume point.
SUSPENDED = _Sentinel("flow-suspended")


@dataclass
class FlowProgram:
    """One workload: ``body`` is the thread form, a generator function
    ``main(mpi)`` shared by every rank (rank identity comes from
    ``mpi.rank``), which is also what :mod:`repro.flows.compile`
    consumes to derive the compiled form."""

    name: str
    ranks: int
    body: Callable[..., Any]


class FlowContext:
    """The runtime handle every rank body receives (the ``mpi`` receiver).

    Deliberately a semantic subset of
    :class:`~repro.ampi.context.AmpiContext`, with the same suspend
    contract per method name, so the interprocedural flow analysis
    (``repro.analysis.flow``) classifies bodies written against it with
    the unchanged AMPI runtime interface: ``recv``/``barrier`` suspend,
    ``send``/``charge`` do not.

    The suspending operations exist in both calling conventions: as
    generator methods (``yield from mpi.recv()``, the thread form) and
    as the ``op_*`` continuation primitives the lowered suspend points
    of :mod:`repro.flows.compile` call.  Generated state functions
    receive this object under the body's original receiver name, so
    the non-suspending calls run verbatim in both forms.
    """

    __slots__ = ("_world", "_task", "rank", "nranks")

    def __init__(self, world: "FlowWorld", task: "_Task",
                 rank: int) -> None:
        self._world = world
        self._task = task
        self.rank = rank
        self.nranks = world.ranks

    # -- non-suspending -------------------------------------------------

    def send(self, dest: int, data: Any, tag: Any = None) -> None:
        """Deposit ``(rank, tag, data)`` in ``dest``'s mailbox (eager,
        never suspends), waking ``dest`` if it is suspended in a receive
        the message matches."""
        world = self._world
        try:
            box = world._mailbox[dest] if 0 <= dest < self.nranks else None
        except TypeError:  # 1.0, None: ordered or not, it is no index
            box = None
        if box is None:
            raise ReproError(
                f"flow r{self.rank}: bad destination rank {dest!r} "
                f"(world has ranks 0..{self.nranks - 1})")
        box.append((self.rank, tag, data))
        waiting = world._waiting[dest]
        if waiting is not None:
            source, wtag = waiting
            if (source is None or self.rank == source) \
                    and (wtag is None or tag == wtag):
                world._waiting[dest] = None
                task = world._tasks[dest]
                world.kernel.post(0.0, world._resume, task.args,
                                  "flow.resume", task.flow)

    def charge(self, ns: float) -> None:
        """Account ``ns`` of modeled compute for this rank."""
        self._world.work_ns += ns

    @property
    def results(self) -> Dict[int, Any]:
        """The world's shared output dict (write ``results[rank]``)."""
        return self._world.results

    # -- suspending, thread form (generator methods, ``yield from``) ----

    def recv(self, source: Optional[int] = None, tag: Any = None):
        """Receive a matching message's payload (MPI-style wildcards:
        ``None`` = any); suspends until one arrives.  Returns
        synchronously (no kernel event) when a match is already queued
        — the compiled form mirrors this exactly."""
        box = self._world._mailbox[self.rank]
        while True:
            for i, (src, mtag, data) in enumerate(box):
                if (source is None or src == source) \
                        and (tag is None or mtag == tag):
                    del box[i]
                    return data
            self._world._waiting[self.rank] = (source, tag)
            yield "suspend"

    def barrier(self):
        """Block until every rank has arrived; the last arrival releases
        all ranks with one ``post_batch``."""
        self._world._barrier_arrive()
        yield "suspend"

    # -- suspending, compiled form (called from generated code) ---------

    def op_recv(self, frame, retry, cont, var: Optional[str],
                source: Optional[int] = None, tag: Any = None):
        """``x = yield from mpi.recv(...)`` in continuation form.

        Match now → store and continue synchronously; no match →
        register the wait and park ``retry`` (which re-runs the match,
        exactly like the generator's receive loop)."""
        box = self._world._mailbox[self.rank]
        for i, (src, mtag, data) in enumerate(box):
            if (source is None or src == source) \
                    and (tag is None or mtag == tag):
                del box[i]
                if var is not None:
                    setattr(frame, var, data)
                return (cont, frame)
        self._world._waiting[self.rank] = (source, tag)
        task = self._task
        task._pc = retry
        task._frame = frame
        return SUSPENDED

    def op_barrier(self, frame, cont):
        """``yield from mpi.barrier()`` in continuation form."""
        self._world._barrier_arrive()
        task = self._task
        task._pc = cont
        task._frame = frame
        return SUSPENDED

    def op_yield(self, frame, cont):
        """``yield "yield"`` — cooperative yield via kernel re-post."""
        task = self._task
        task._pc = cont
        task._frame = frame
        self._world._post_resume(task)
        return SUSPENDED

    def op_exit(self, frame):
        """``yield "exit"`` — finish this flow immediately."""
        return DONE

    def op_return(self, frame, value):
        """``return`` — hand the value to the delegating caller's
        continuation, or finish the task at the outermost frame."""
        ret = frame._ret
        if ret is None:
            return DONE
        cont, caller_frame, var = ret
        if var is not None:
            setattr(caller_frame, var, value)
        return (cont, caller_frame)


class _Task:
    """One rank of a world: ``flow`` is its kernel label (``r<rank>``;
    the rank itself lives on its :class:`FlowContext`), ``args`` its
    ``(task,)`` kernel args tuple, built once and shared by every post.
    The forms set both themselves: a ``super().__init__`` per task read
    +3 % on the 80 000-flow ``flows_drain`` repetition."""

    __slots__ = ("flow", "args")


class _GeneratorTask(_Task):
    """Trampoline around one thread-form body generator."""

    __slots__ = ("gen",)

    def __init__(self, world: "FlowWorld", rank: int,
                 body: Callable[..., Any]) -> None:
        self.flow = f"r{rank}"
        self.args = (self,)
        self.gen = body(FlowContext(world, self, rank))

    def step(self, world: "FlowWorld") -> None:
        try:
            directive = self.gen.send(None)
        except StopIteration:
            world._done += 1
            return
        if directive == "suspend":
            return
        if directive == "yield":
            world._post_resume(self)
            return
        if directive == "exit":
            self.gen.close()
            world._done += 1
            return
        raise ReproError(
            f"flow {self.flow}: unsupported directive {directive!r} "
            f"(the flows runtime speaks yield/suspend/exit)")


class CompiledTask(_Task):
    """One flow running as a compiled continuation state machine."""

    __slots__ = ("ctx", "_pc", "_frame")

    def __init__(self, world: "FlowWorld", rank: int, entry,
                 frame) -> None:
        self.flow = f"r{rank}"
        self.args = (self,)
        self.ctx = FlowContext(world, self, rank)
        self._pc = entry
        self._frame = frame

    def step(self, world: "FlowWorld") -> None:
        pc, frame = self._pc, self._frame
        self._pc = self._frame = None
        ctx = self.ctx
        res = pc(ctx, frame)
        # The trampoline: states hand back (next_state, frame) until a
        # primitive parks a resume point or the outermost frame returns.
        while res.__class__ is tuple:
            pc, frame = res
            res = pc(ctx, frame)
        if res is DONE:
            world._done += 1
        elif res is not SUSPENDED:
            raise ReproError(
                f"flow {self.flow}: compiled state returned {res!r} "
                f"(expected a continuation, DONE, or SUSPENDED)")


@dataclass(frozen=True)
class WorkloadRun:
    """Outcome of one workload execution under one mechanism."""

    mechanism: str
    platform: str
    program: str
    ranks: int
    dispatches: int
    kernel_events: int
    work_ns: float
    modeled_switch_ns: float
    results: Dict[int, Any]
    trace: Optional[List[dict]] = None

    def trace_bytes(self) -> bytes:
        """Canonical trace rendering for byte-level comparison."""
        import json
        if self.trace is None:
            raise ReproError("run was not traced")
        return "\n".join(
            json.dumps(e, sort_keys=True) for e in self.trace).encode()


class FlowWorld:
    """Per-run execution world: kernel + mailboxes + completion."""

    def __init__(self, ranks: int, dispatch_cost_ns: float = 0.0) -> None:
        if ranks <= 0:
            raise ReproError("a flow world needs at least one rank")
        self.ranks = ranks
        #: The world's own kernel; tracers attach here before ``run()``.
        self.kernel = EventKernel(name="flows", causality=False)
        self.dispatch_cost_ns = dispatch_cost_ns
        self._tasks: List[Any] = []
        #: Per-rank queues of ``(src, tag, data)`` tuples.
        self._mailbox: List[List[tuple]] = [[] for _ in range(ranks)]
        self._waiting: List[Optional[tuple]] = [None] * ranks
        self._barrier_count = 0
        self._done = 0
        self.dispatches = 0
        self.work_ns = 0.0
        self.modeled_switch_ns = 0.0
        #: Shared per-rank output dict, exposed to bodies as
        #: ``mpi.results``.
        self.results: Dict[int, Any] = {}

    # -- construction ---------------------------------------------------

    def spawn(self, form: str, program: FlowProgram) -> None:
        """Populate every rank with ``program`` in one of its forms:
        ``"thread"`` (the generator body) or ``"compiled"`` (the body
        after :func:`repro.flows.compile.compile_flow`)."""
        if self._tasks:
            raise ReproError("world already populated")
        ranks = range(self.ranks)
        if form == "thread":
            self._tasks = [_GeneratorTask(self, r, program.body)
                           for r in ranks]
        elif form == "compiled":
            compiled = compile_flow(program.body)
            self._tasks = [
                CompiledTask(self, r, compiled.entry, compiled.new_frame())
                for r in ranks]
        else:
            raise ReproError(
                f"unknown flow form {form!r} (thread, compiled); a "
                f"hand-written event form is a chare — host it on "
                f"repro.charm, as repro.workloads.stencil_chare does")

    # -- execution ------------------------------------------------------

    def _post_all(self) -> None:
        """Post one resume per rank in a single batch."""
        tasks = self._tasks
        self.kernel.post_batch(
            [0.0] * len(tasks), self._resume, [t.args for t in tasks],
            [t.flow for t in tasks], "flow.resume")

    def seed(self) -> None:
        """Post the initial resume for every rank (one batch)."""
        self._post_all()

    def run(self) -> int:
        """Seed (if nothing is pending) and drain to quiescence.

        Raises :class:`~repro.errors.ReproError` if the kernel drains
        with unfinished flows (a deadlocked receive or a barrier some
        rank never reaches), naming the stuck ranks — crash containment
        for the sweep cells.
        """
        if not self._tasks:
            raise ReproError("world has no tasks (spawn first)")
        if len(self.kernel) == 0 and self.dispatches == 0:
            self.seed()
        processed = self.kernel.run_batch()
        if self._done < len(self._tasks):
            stuck = [f"r{rank}(waiting={wait})"
                     for rank, wait in enumerate(self._waiting)
                     if wait is not None]
            if self._barrier_count:
                stuck.append(f"{self._barrier_count} of {len(self._tasks)} "
                             f"ranks at the barrier")
            raise ReproError(
                f"flow world drained with {len(self._tasks) - self._done} "
                f"unfinished flows: {', '.join(stuck) or 'none waiting'}")
        return processed

    # -- the dispatch site (shared by thread + compiled forms) ----------

    def _resume(self, task) -> None:
        self.dispatches += 1
        self.modeled_switch_ns += self.dispatch_cost_ns
        task.step(self)

    def _post_resume(self, task) -> None:
        self.kernel.post(0.0, self._resume, task.args, "flow.resume",
                         task.flow)

    # -- barrier (messaging lives on FlowContext) ----------------------

    def _barrier_arrive(self) -> None:
        self._barrier_count += 1
        if self._barrier_count == len(self._tasks):
            self._barrier_count = 0
            self._post_all()

    @property
    def finished(self) -> int:
        return self._done
