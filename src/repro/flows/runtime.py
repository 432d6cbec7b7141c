"""Workload execution for flow mechanisms: one kernel, two frontends.

A thread body and the event form the compiler derives from it must run
*the same program* before their costs and limits can be compared
honestly.  This module is the shared substrate: a :class:`FlowWorld`
owns one fast-path :class:`~repro.kernel.EventKernel` plus one
:class:`~repro.core.ranks.RankProtocol` (queues, park table, barrier),
and drives

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

Cost model: the world charges ``dispatch_cost_ns`` (the owning
mechanism's modeled switch cost) per dispatch into
:attr:`FlowWorld.modeled_switch_ns`, and bodies charge their compute
via ``mpi.charge`` into :attr:`FlowWorld.work_ns`.  Neither appears in
the trace, so mechanisms with different cost models still compare
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.pup import FROZEN, Frozen, freeze_value, thaw_value
from repro.core.ranks import ANY_SOURCE, ANY_TAG, RankProtocol
from repro.errors import PupError, ReproError
from repro.flows.compile import CompiledFlow, compile_flow
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
#: The park record of a rank at the barrier.
AT_BARRIER = ("barrier",)


@dataclass
class FlowProgram:
    """One workload: ``body`` is the thread form, a generator function
    ``main(mpi)`` shared by every rank (rank identity comes from
    ``mpi.rank``), which is also what :mod:`repro.flows.compile`
    consumes to derive the compiled form."""

    name: str
    ranks: int
    body: Callable[..., Any]
    _compiled: Optional[CompiledFlow] = field(default=None, init=False,
                                              repr=False, compare=False)

    def compiled(self) -> CompiledFlow:
        """The compiled form of :attr:`body`, built once per program.

        Compiled code is cyclic by nature (its state functions' globals
        hold them, its frame record is a class), so the program keeps
        the one it built instead of each world building and dropping
        another.
        """
        if self._compiled is None:
            self._compiled = compile_flow(self.body)
        return self._compiled


class FlowContext:
    """One rank of a world, and the runtime handle its body receives
    (the ``mpi`` receiver).

    A semantic subset of :class:`~repro.ampi.context.AmpiContext` with
    the same suspend contract per method name (``recv``/``barrier``
    suspend, ``send``/``charge`` do not), so ``repro.analysis.flow``
    classifies bodies written against either alike.  A rank is one host
    object (``tests/flows/test_footprint.py``): the two task classes
    below *are* contexts, adding what their form resumes.  ``flow`` is
    the rank's kernel label (``r<rank>``) and ``args`` its ``(task,)``
    kernel args tuple, built once and shared by every post.
    """

    __slots__ = ("_world", "rank", "nranks", "flow", "args")

    def __init__(self, world: "FlowWorld", rank: int) -> None:
        self._world = world
        self.rank = rank
        self.nranks = world.ranks
        self.flow = f"r{rank}"
        self.args = (self,)

    # -- non-suspending -------------------------------------------------

    def send(self, dest: int, data: Any, tag: Any = None) -> None:
        """Queue ``(rank, tag, data)`` for ``dest`` (eager, never
        suspends), resuming ``dest`` if it is parked in a receive the
        message matches.  The queue holds the receiver's own value
        (:func:`repro.core.pup.freeze_value`): the sender may write to
        ``data`` once this returns."""
        world = self._world
        protocol = world.protocol
        try:
            # The subscript refuses what orders but is no index (1.0).
            bad = (not 0 <= dest < self.nranks
                   or protocol.queues[dest] is False)
        except TypeError:
            bad = True
        if bad:
            raise ReproError(
                f"flow r{self.rank}: bad destination rank {dest!r} "
                f"(world has ranks 0..{self.nranks - 1})")
        if data.__class__ not in FROZEN:
            # Delivery is immediate: the queue takes the receiver's own
            # value, however the sender writes to ``data`` next.
            try:
                data = freeze_value(data)
            except PupError as e:
                raise ReproError(f"flow r{self.rank} -> r{dest} "
                                 f"(tag={tag!r}): {e}") from None
            if data.__class__ is Frozen:
                data = thaw_value(data)
        if protocol.arrive(dest, self.rank, tag, data):
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
        """Receive a matching message's payload (wildcards
        ``ANY_SOURCE``/``ANY_TAG``, or ``None``); suspends until one
        arrives.  Returns synchronously (no kernel event) when a match
        is already queued — the compiled form mirrors this exactly."""
        source = ANY_SOURCE if source is None else source
        tag = ANY_TAG if tag is None else tag
        protocol = self._world.protocol
        rank = self.rank
        while True:
            rec = protocol.take(rank, source, tag)
            if rec is not None:
                return rec[2]
            yield "suspend"

    def barrier(self):
        """Block until every rank has arrived; the last arrival releases
        all ranks with one ``post_batch``."""
        self._world._barrier_arrive(self.rank)
        yield "suspend"


class _GeneratorTask(FlowContext):
    """A rank running its thread-form body generator, trampolined one
    resume per kernel event."""

    __slots__ = ("gen",)

    def __init__(self, world: "FlowWorld", rank: int,
                 body: Callable[..., Any]) -> None:
        super().__init__(world, rank)
        self.gen = body(self)

    def step(self, world: "FlowWorld") -> None:
        try:
            directive = self.gen.send(None)
        except StopIteration:
            world._done += 1
            self._world = self.args = None      # see CompiledTask.step
            return
        if directive == "suspend":
            return
        if directive == "yield":
            world.kernel.post(0.0, world._resume, self.args,
                              "flow.resume", self.flow)
            return
        if directive == "exit":
            self.gen.close()
            world._done += 1
            self._world = self.args = None
            return
        raise ReproError(
            f"flow {self.flow}: unsupported directive {directive!r} "
            f"(the flows runtime speaks yield/suspend/exit)")


class CompiledTask(FlowContext):
    """A rank running as a compiled continuation state machine: the
    parked ``(_pc, _frame)`` pair is all it holds beyond its context.
    Generated state functions receive the task itself as their
    receiver, so the body's non-suspending calls run verbatim and its
    lowered suspend points call the ``op_*`` primitives below."""

    __slots__ = ("_pc", "_frame")

    def __init__(self, world: "FlowWorld", rank: int, entry,
                 frame) -> None:
        super().__init__(world, rank)
        self._pc = entry
        self._frame = frame

    def step(self, world: "FlowWorld") -> None:
        pc, frame = self._pc, self._frame
        self._pc = self._frame = None
        res = pc(self, frame)
        # The trampoline: states hand back (next_state, frame) until a
        # primitive parks a resume point or the outermost frame returns.
        while res.__class__ is tuple:
            pc, frame = res
            res = pc(self, frame)
        if res is DONE:
            world._done += 1
            # The rank is over: cut its edges back into the world (and
            # the args tuple holding the task itself), so a finished
            # world is freed by reference counting.
            self._world = self.args = None
        elif res is not SUSPENDED:
            raise ReproError(
                f"flow {self.flow}: compiled state returned {res!r} "
                f"(expected a continuation, DONE, or SUSPENDED)")

    # -- suspending, compiled form (called from generated code) ---------

    def op_recv(self, frame, retry, cont, var: Optional[str],
                source: Optional[int] = None, tag: Any = None):
        """``x = yield from mpi.recv(...)`` in continuation form.

        Match now → store and continue synchronously; no match → park
        the receive and ``retry`` (which re-runs the match, exactly like
        the generator's receive loop)."""
        source = ANY_SOURCE if source is None else source
        tag = ANY_TAG if tag is None else tag
        protocol = self._world.protocol
        queue = protocol.queues[self.rank]
        if queue:
            # RankProtocol.take, inlined: a call per scan puts the compiled
            # stencil over its calls-per-message ceiling (14.14 of 14.0).
            i = 0
            for rec in queue:
                if ((rec[0] == source or source == ANY_SOURCE)
                        and (rec[1] == tag or tag == ANY_TAG)):
                    del queue[i]
                    if var is not None:
                        setattr(frame, var, rec[2])
                    return (cont, frame)
                i += 1
        protocol.take(self.rank, source, tag)    # no match: parks
        self._pc = retry
        self._frame = frame
        return SUSPENDED

    def op_barrier(self, frame, cont):
        """``yield from mpi.barrier()`` in continuation form."""
        self._world._barrier_arrive(self.rank)
        self._pc = cont
        self._frame = frame
        return SUSPENDED

    def op_yield(self, frame, cont):
        """``yield "yield"`` — cooperative yield via kernel re-post."""
        self._pc = cont
        self._frame = frame
        world = self._world
        world.kernel.post(0.0, world._resume, self.args, "flow.resume",
                          self.flow)
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
    """Per-run execution world: kernel + rank protocol + completion."""

    def __init__(self, ranks: int, dispatch_cost_ns: float = 0.0) -> None:
        if ranks <= 0:
            raise ReproError("a flow world needs at least one rank")
        self.ranks = ranks
        #: The world's own kernel; tracers attach here before ``run()``.
        self.kernel = EventKernel(name="flows", causality=False)
        self.dispatch_cost_ns = dispatch_cost_ns
        #: The dispatch site, kept on the instance because a post reads
        #: it faster there than off the class: the plain function, not a
        #: bound method (that would point back at the world).  Its trace
        #: ``site`` is ``FlowWorld._resume``.
        self._resume = FlowWorld._resume
        self._tasks: List[Any] = []
        self.protocol = RankProtocol(ranks)
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
            compiled = program.compiled()
            entry, new_frame = compiled.entry, compiled.frame_factory
            self._tasks = [CompiledTask(self, r, entry, new_frame())
                           for r in ranks]
        else:
            raise ReproError(
                f"unknown flow form {form!r} (thread, compiled); a "
                f"hand-written event form is a chare — host it on "
                f"repro.charm, as repro.workloads.stencil_chare does")

    # -- execution ------------------------------------------------------

    def seed(self) -> None:
        """Post one resume per rank in a single batch: the initial
        resumes, and a barrier's release."""
        tasks = self._tasks
        self.kernel.post_batch(
            [0.0] * len(tasks), self._resume, [t.args for t in tasks],
            [t.flow for t in tasks], "flow.resume")

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
            parked = sorted(self.protocol.parked.items())
            stuck = [f"r{rank}(waiting={why[1:]})"
                     for rank, why in parked if why[0] == "recv"]
            at_barrier = sum(why == AT_BARRIER for _, why in parked)
            if at_barrier:
                stuck.append(f"{at_barrier} of {len(self._tasks)} "
                             f"ranks at the barrier")
            raise ReproError(
                f"flow world drained with {len(self._tasks) - self._done} "
                f"unfinished flows: {', '.join(stuck) or 'none waiting'}")
        return processed

    # -- the dispatch site (shared by thread + compiled forms) ----------

    @staticmethod
    def _resume(task) -> None:
        world = task._world
        world.dispatches += 1
        world.modeled_switch_ns += world.dispatch_cost_ns
        task.step(world)

    # -- barrier (messaging lives on FlowContext) ----------------------

    def _barrier_arrive(self, rank: int) -> None:
        # The quorum is every rank, finished or not (a rank that returned
        # without arriving blocks the barrier), so a release is all ranks.
        self.protocol.parked[rank] = AT_BARRIER
        if self.protocol.release(AT_BARRIER, self.ranks):
            self.seed()

    @property
    def finished(self) -> int:
        return self._done
