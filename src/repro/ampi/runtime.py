"""The AMPI runtime: virtual ranks on migratable threads over the cluster."""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import (AmpiError, CheckpointError, MigrationAborted,
                          PupError)
from repro.ampi.context import (AT_CHECKPOINT, AT_MIGRATE, AmpiContext,
                                AmpiMessage)
from repro.ampi.request import Request
from repro.balance.instrument import LBDatabase
from repro.balance.manager import LBManager, RebalanceReport
from repro.balance.strategies import GreedyLB, Strategy
from repro.core.checkpoint import Checkpointer
from repro.core.isomalloc import IsomallocArena
from repro.core.scheduler import CthScheduler
from repro.core.migration import ThreadMigrator
from repro.core.pup import FROZEN, Frozen, freeze_value, thaw_value
from repro.core.ranks import ANY_SOURCE, ANY_TAG, RankProtocol, matches
from repro.core.stacks import make_stack_manager
from repro.core.swapglobal import GlobalRegistry
from repro.core.thread import ThreadState, UThread
from repro.sim.cluster import Cluster
from repro.sim.network import Message, Network

__all__ = ["AmpiRuntime"]

_TAG = "ampi"

#: Scheduling rounds :meth:`AmpiRuntime.run` makes before it gives up:
#: a bound on a livelock, far above any real run's count.
_MAX_ROUNDS = 10_000_000

#: Signature of a rank program: a generator function over the context.
RankMain = Callable[[AmpiContext], Generator]


class AmpiRuntime:
    """N virtual MPI ranks on P simulated processors.

    Parameters
    ----------
    num_procs:
        Physical (simulated) processors.  May also be an existing
        :class:`~repro.sim.cluster.Cluster`.
    num_ranks:
        Virtual processors — AMPI wants this "much larger than the actual
        number of processors" for load balancing to work (Section 4.5).
    main:
        The rank program (generator function taking an
        :class:`AmpiContext`).
    technique:
        Stack technique for the rank threads (isomalloc by default — the
        configuration the paper's Figure 12 runs use).
    strategy:
        Load-balancing strategy used at ``MPI_Migrate`` points
        (default GreedyLB; pass :class:`~repro.balance.strategies.NullLB`
        for the "without LB" arm).
    """

    def __init__(self, num_procs, num_ranks: int, main: RankMain, *,
                 platform: str = "linux_x86",
                 network: Optional[Network] = None,
                 technique: str = "isomalloc",
                 stack_bytes: int = 32 * 1024,
                 slot_bytes: int = 512 * 1024,
                 emulate_swap: bool = False,
                 strategy: Optional[Strategy] = None,
                 placement: Optional[Callable[[int], int]] = None,
                 globals_decl: Tuple[Tuple[str, int], ...] = ()):
        if isinstance(num_procs, Cluster):
            self.cluster = num_procs
        else:
            self.cluster = Cluster(num_procs, platform=platform,
                                   network=network)
        npes = len(self.cluster)
        if num_ranks <= 0:
            raise AmpiError("need at least one rank")
        self.num_ranks = num_ranks
        #: MPI_COMM_WORLD's member list, shared by every rank's world
        #: communicator (one list, not one per rank).
        self.world_members: List[int] = list(range(num_ranks))
        self.main = main
        layout = self.cluster.platform.layout()
        self.arena = IsomallocArena(layout, npes, slot_bytes=slot_bytes)
        self.schedulers: List[CthScheduler] = []
        for pe in range(npes):
            proc = self.cluster[pe]
            mgr = make_stack_manager(technique, proc.space, proc.profile,
                                     stack_bytes, self.arena, pe)
            registry = None
            if globals_decl:
                registry = GlobalRegistry(proc.space)
                for name, size in globals_decl:
                    registry.declare(name, size)
                registry.build()
            sched = CthScheduler(proc, mgr, globals_registry=registry,
                                 emulate_swap=emulate_swap)
            sched.on_exit = self._rank_exited
            self.schedulers.append(sched)
        self.migrator = ThreadMigrator(self.cluster, self.schedulers)
        self.migrator.on_arrival = self._thread_arrived
        self.db = LBDatabase(npes)
        self.strategy = strategy or GreedyLB()
        self.lb = LBManager(self.db, self.strategy)
        # rank state
        self.rank_thread: List[UThread] = []
        self.protocol = RankProtocol(num_ranks, AmpiError)
        #: The protocol's park table (records: :mod:`repro.ampi.context`).
        self.parked = self.protocol.parked
        #: rank -> its posted (not yet matched) irecv requests, in post
        #: order; a rank has an entry only while it has some pending.
        self._posted: Dict[int, List[Request]] = {}
        self._posts = 0
        self._finished = 0
        #: rank -> key of its most recent coordinated checkpoint.
        self.last_checkpoint: Dict[int, str] = {}
        self.checkpointer = Checkpointer(self.migrator)
        #: tid -> rank, for placement bookkeeping on thread arrival (tids
        #: are stable across migration; never key runtime state on id()).
        self._rank_of_tid: Dict[tuple, int] = {}
        #: LB moves the migrator aborted twice; the rank stayed home.
        self.migrations_abandoned = 0
        #: True while a rebalance transaction is applying its moves; the
        #: LB database legitimately leads reality inside this window.
        self.rebalance_in_progress = False
        self.reports: List[RebalanceReport] = []
        for proc in self.cluster.processors:
            proc.register(_TAG, self._on_message)
        # spawn ranks; default placement is round-robin over processors
        for rank in range(num_ranks):
            pe = placement(rank) if placement else rank % npes
            if not 0 <= pe < npes:
                raise AmpiError(f"placement({rank}) = {pe} out of range")
            # The context is the thread's body: calling it starts main.
            thread = self.schedulers[pe].create(
                AmpiContext(self, rank), name=f"rank{rank}",
                privatize_globals=bool(globals_decl))
            self.rank_thread.append(thread)
            self._rank_of_tid[thread.tid] = rank
            self.db.register(rank, pe)

    def _rank_exited(self, thread: UThread) -> None:
        """Every scheduler's ``on_exit``: a rank's body returned or
        raised, so it counts as finished and leaves the LB database."""
        self._finished += 1
        self.db.unregister(self._rank_of_tid[thread.tid])
        # The rank's world communicator points back at its context (the
        # body): drop it, or the two outlive the rank as a cycle.
        ctx = thread.body
        if "world" in ctx.__dict__:
            del ctx.world

    # ------------------------------------------------------------------
    # rank-to-rank messaging
    # ------------------------------------------------------------------

    def rank_pe(self, rank: int) -> int:
        """Current processor of a rank."""
        return self.rank_thread[rank].scheduler.processor.id

    def _send(self, src_rank: int, dst_rank: int, data: Any, tag: Any,
              size: int) -> None:
        # Ownership passes here: the receiver gets its own value, however
        # the sender writes to ``data`` next (thawed in ``_enqueue``).  A
        # flat tuple of immutables (BigSim's ``(tclock, ghost)``) is
        # checked inline, so it costs no call either.
        if data.__class__ not in FROZEN:
            for item in data if data.__class__ is tuple else (data,):
                if item.__class__ not in FROZEN:
                    try:
                        data = freeze_value(data)
                    except PupError as e:
                        raise AmpiError(f"rank {src_rank} -> {dst_rank} "
                                        f"(tag={tag!r}): {e}") from None
                    break
        msg = AmpiMessage(src_rank, dst_rank, tag, data, size)
        threads = self.rank_thread
        src_proc = threads[src_rank].scheduler.processor
        dst_proc = threads[dst_rank].scheduler.processor
        if src_proc is dst_proc:
            # Same-processor ranks communicate through the scheduler —
            # "fast local message passing via the thread scheduler"
            # (Section 3.4) — no network traffic.
            src_proc.charge(self.cluster.platform.event_dispatch_ns)
            self._enqueue(msg)
        else:
            self.cluster.send(src_proc.id, dst_proc.id, msg, size, _TAG)

    def _on_message(self, cluster_msg: Message) -> None:
        msg: AmpiMessage = cluster_msg.payload
        here = cluster_msg.dst
        current = self.rank_thread[msg.dst].scheduler.processor.id
        if current != here:
            # The rank migrated while the message was in flight: forward.
            self.cluster.send(here, current, msg,
                              size_bytes=msg.size_bytes, tag=_TAG)
            return
        self._enqueue(msg)

    def _enqueue(self, msg: AmpiMessage) -> None:
        if msg.data.__class__ is Frozen:
            # Each delivery unpacks its own value into a new record: a
            # duplicated in-flight message must not alias the first.
            msg = AmpiMessage(msg.src, msg.dst, msg.tag,
                              thaw_value(msg.data), msg.size_bytes)
        dst = msg.dst
        self.db.record_comm(msg.src, dst, msg.size_bytes)
        # Posted receives match before the unexpected-message queue
        # (standard MPI matching semantics).
        posted = self._posted
        if posted and dst in posted:
            reqs = posted[dst]
            for i, req in enumerate(reqs):
                if matches(msg.src, msg.tag, req.source, req.tag):
                    del reqs[i]
                    if not reqs:
                        del posted[dst]
                    req._complete(msg)
                    self._wake_if_satisfied(dst)
                    return
        if self.protocol.arrive(dst, msg.src, msg.tag, msg):
            self._wake(dst)

    def _wake(self, rank: int) -> None:
        """Make ``rank`` runnable again if it is parked (a rank that is
        READY or running needs no wake-up)."""
        thread = self.rank_thread[rank]
        if thread.state is ThreadState.SUSPENDED:
            thread.scheduler.awaken(thread)

    def _post_recv(self, req: Request) -> None:
        """Post an irecv: match the unexpected queue first, else park it."""
        rec = self.protocol.take(req.rank, req.source, req.tag)
        if rec is not None:
            req._complete(rec[2])
            return
        # take parked the rank; it runs on, the request waits instead.
        del self.parked[req.rank]
        req.seq = self._posts
        self._posts += 1
        self._posted.setdefault(req.rank, []).append(req)

    def _wake_if_satisfied(self, rank: int) -> None:
        """A posted receive of ``rank`` just completed: resume the rank if
        it is parked in an MPI_Wait* that this satisfies."""
        why = self.parked.get(rank)
        if why is not None and why[0] == "wait":
            _, mode, seqs = why
            pending = {req.seq for req in self._posted.get(rank, ())}
            if (pending.isdisjoint(seqs) if mode == "all"
                    else not pending.issuperset(seqs)):
                del self.parked[rank]
                self._wake(rank)

    # ------------------------------------------------------------------
    # MPI_Migrate / load balancing
    # ------------------------------------------------------------------

    def _run_checkpoint(self, ranks: List[int]) -> None:
        """Coordinated checkpoint: every live rank is suspended at the
        barrier; write all images to the simulated disk, then publish
        ``checkpoint.barrier`` (``runtime=self``) before they resume
        (reference [42]'s blocking coordinated protocol).  That is the
        window in which a failure can be recovered from the fresh images:
        the chaos injector crashes or drains a processor there."""
        for rank in ranks:
            key = (f"ampi-r{rank}-"
                   f"e{self.checkpointer.checkpoints_taken}")
            try:
                self.last_checkpoint[rank] = self.checkpointer.checkpoint(
                    self.rank_thread[rank], key=key)
            except CheckpointError:
                # Transient disk error: one retry.  A second failure
                # propagates — a checkpoint the runtime cannot write is a
                # real outage, not something to paper over.
                self.last_checkpoint[rank] = self.checkpointer.checkpoint(
                    self.rank_thread[rank], key=key)
        self.cluster.queue.hooks.decide("checkpoint.barrier", runtime=self)

    def recover_rank(self, rank: int, dst_pe: int) -> None:
        """Rebuild a failed rank from its last coordinated checkpoint.

        Valid while the rank has not run since that checkpoint (the rank
        was lost at or right after the barrier) — the emulation constraint
        documented in :mod:`repro.core.checkpoint`.
        """
        key = self.last_checkpoint.get(rank)
        if key is None:
            raise AmpiError(f"rank {rank} has no checkpoint to recover from")
        self.checkpointer.restore(key, dst_pe)
        self._wake(rank)
        self.db.moved(rank, dst_pe)

    def _thread_arrived(self, thread: UThread) -> None:
        # Keep the LB database honest about where ranks really are —
        # matters when a migration bounced back to its source processor.
        rank = self._rank_of_tid.get(thread.tid)
        if rank is not None and self.db.tracks(rank):
            self.db.moved(rank, thread.scheduler.processor.id)

    def _run_rebalance(self, ranks: List[int]) -> None:
        """One LB step: the manager plans, the moves are made here.  An
        aborted move is retried once (no state moved yet); a second abort
        leaves the rank home and the database is told the truth."""
        for pe, proc in enumerate(self.cluster.processors):
            self.db.set_pe_speed(pe, max(1e-6, 1.0 - proc.background_load))
        self.rebalance_in_progress = True
        try:
            report, plan = self.lb.rebalance()
            for rank, dst in plan:
                thread = self.rank_thread[rank]
                try:
                    self.migrator.migrate(thread, dst)
                except MigrationAborted:
                    try:
                        self.migrator.migrate(thread, dst)
                    except MigrationAborted:
                        self.migrations_abandoned += 1
                        self.db.moved(rank,
                                      thread.scheduler.processor.id)
            self.cluster.run()                # deliver the thread images
        finally:
            self.rebalance_in_progress = False
        self.reports.append(report)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every rank has finished."""
        return self._finished == self.num_ranks

    def run(self, until: Optional[float] = None,
            max_net_events: Optional[int] = None) -> None:
        """Drive schedulers and the network until every rank finishes.

        Deliberately *not* a sixth run loop: every scheduler pass and
        every network drain below is a ``run()`` on one of the
        per-processor thread kernels or on the cluster's event kernel —
        this method only interleaves those kernels with the two AMPI
        collective barriers (MPI_Migrate rebalancing and coordinated
        checkpoints), whose ordering relative to in-flight traffic is
        part of the runtime's determinism contract.  The ``queue.empty``
        probe each round is O(1) on the kernel's live-event counter.

        ``until`` / ``max_net_events`` bound the *network* kernel — stop
        before any cluster event later than ``until``, or after that
        many cluster events in total — and turn the run into a partial
        replay for the time-travel tooling: the loop returns (instead of
        raising deadlock) once no bounded progress is possible, leaving
        the runtime frozen at a well-defined point — every network event
        inside the bound delivered, all resulting local computation
        settled, the still-live kernel events being exactly the
        in-flight messages beyond the horizon.  Unbounded (the default),
        behavior is unchanged.

        Raises
        ------
        AmpiError
            On deadlock (no rank runnable, no message in flight) with a
            description of what each live rank is waiting for.  Never
            raised for exhausting a replay bound.
        """
        bounded = until is not None or max_net_events is not None
        net_budget = max_net_events
        for _ in range(_MAX_ROUNDS):
            if self.done:
                self._retire()
                return
            progressed = False
            for sched in self.schedulers:
                if not sched.kernel.empty:
                    sched.run()
                    progressed = True
            if not self.cluster.queue.empty:
                if not bounded:
                    self.cluster.run()
                    progressed = True
                elif net_budget is None or net_budget > 0:
                    processed = self.cluster.run(until=until,
                                                 max_events=net_budget)
                    if net_budget is not None:
                        net_budget -= processed
                    if processed:
                        progressed = True
            # Both barriers: act on and resume every live rank parked at one.
            for barrier, action in ((AT_MIGRATE, self._run_rebalance),
                                    (AT_CHECKPOINT, self._run_checkpoint)):
                ranks = self.protocol.release(
                    barrier, self.num_ranks - self._finished)
                if ranks:
                    action(ranks)
                    for rank in ranks:
                        self._wake(rank)
                    progressed = True
            if not progressed:
                if bounded:
                    return
                self._raise_deadlock()
        raise AmpiError(f"run() exceeded {_MAX_ROUNDS} scheduling rounds")

    def _retire(self) -> None:
        """Cut the run's back-edges: every rank has finished.

        While ranks run, the machine points back at the runtime — each
        scheduler's ``on_exit``, the migrator's ``on_arrival``, every
        processor's ``ampi`` and migration handlers, and ``main`` (a
        bound method when a :class:`~repro.bigsim.BigSimEngine` owns the
        runtime).  None is needed once the last rank exits (each rank cut
        its own thread's edges then), so they go here and a finished
        runtime is freed by reference counting.  Every post-run reader —
        makespan, placement, profiles, summary, migrator and checkpointer
        counters, stored images — reads forward edges only.  A partial or
        failed run never gets here and keeps its graph for replay and
        diagnosis.
        """
        if self.main is None:
            return
        self.main = None
        self.migrator.detach()
        for sched in self.schedulers:
            sched.on_exit = None
        for proc in self.cluster.processors:
            proc.unregister(_TAG)

    def _raise_deadlock(self) -> None:
        """Raise the deadlock report, derived from the park table alone.

        The error's ``parked`` is a copy of the whole table.  Its text is
        pinned — a deadlocked chaos cell's fingerprint digests it, and
        ``perf/expected.json`` digests that — so it keeps the grouping it
        has always had (receive waits, request waits, the MPI_Migrate
        barrier) and its silence about the checkpoint barrier.
        """
        lines = []
        for kind in ("recv", "wait", "migrate"):
            for rank, why in sorted(self.parked.items()):
                if why[0] != kind:
                    continue
                if kind == "recv":
                    src = "ANY" if why[1] == ANY_SOURCE else why[1]
                    tg = "ANY" if why[2] == ANY_TAG else why[2]
                    lines.append(f"rank {rank} waiting for recv(source="
                                 f"{src}, tag={tg})")
                elif kind == "wait":
                    lines.append(f"rank {rank} waiting on requests ({why[1]} "
                                 f"of posted receives {list(why[2])})")
                else:
                    lines.append(f"rank {rank} at MPI_Migrate barrier")
        error = AmpiError("AMPI deadlock: no runnable rank and no message in "
                          "flight\n" + "\n".join(lines))
        error.parked = dict(self.parked)
        raise error

    # -- reporting ----------------------------------------------------------

    @property
    def makespan_ns(self) -> float:
        """Completion time: the latest processor clock."""
        return self.cluster.makespan

    def pe_of_ranks(self) -> List[int]:
        """Current processor of each rank (post-run placement)."""
        return [self.rank_pe(r) for r in range(self.num_ranks)]

    def rank_profile(self) -> List[tuple]:
        """Per-rank profile rows: (rank, pe, work_ms, switches, migrations).

        The observability counterpart of the load database: what each
        virtual processor actually did, for post-run analysis and the
        examples' reports.
        """
        rows = []
        for r in range(self.num_ranks):
            t = self.rank_thread[r]
            rows.append((r, self.rank_pe(r), t.work_ns / 1e6, t.switches,
                         t.migrations))
        return rows

    def summary(self) -> str:
        """Human-readable run report: time, traffic, migrations, balance.

        Intended for examples and interactive use, after :meth:`run`.
        """
        lines = [
            f"AMPI run: {self.num_ranks} ranks on {len(self.cluster)} "
            f"processors ({self.cluster.platform.name})",
            f"  virtual makespan : {self.makespan_ns / 1e6:.3f} ms",
            f"  finished ranks   : {self._finished}/{self.num_ranks}",
        ]
        sent = sum(p.messages_sent for p in self.cluster.processors)
        nbytes = sum(p.bytes_sent for p in self.cluster.processors)
        lines.append(f"  network          : {sent} messages, "
                     f"{nbytes / 1024:.1f} KiB")
        switches = sum(s.context_switches for s in self.schedulers)
        lines.append(f"  context switches : {switches}")
        if self.migrator.migrations_completed:
            lines.append(
                f"  migrations       : {self.migrator.migrations_completed} "
                f"({self.migrator.bytes_shipped / 1024:.1f} KiB shipped)")
        for r in self.reports:
            lines.append(f"  {r}")
        if self.checkpointer.checkpoints_taken:
            lines.append(
                f"  checkpoints      : {self.checkpointer.checkpoints_taken} "
                f"({self.checkpointer.bytes_written / 1024:.1f} KiB written)")
        per_pe = [0.0] * len(self.cluster)
        for p in self.cluster.processors:
            per_pe[p.id] = p.busy_ns
        busiest = max(per_pe)
        if busiest > 0:
            avg = sum(per_pe) / len(per_pe)
            lines.append(f"  processor load   : max/avg = "
                         f"{busiest / avg:.2f}" if avg else "")
        return "\n".join(lines)
