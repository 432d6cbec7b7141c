"""The AMPI runtime: virtual ranks on migratable threads over the cluster."""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import AmpiError, CheckpointError, MigrationAborted
from repro.ampi.context import (AT_CHECKPOINT, AT_MIGRATE, AmpiContext,
                                AmpiMessage)
from repro.ampi.datatypes import ANY_SOURCE, ANY_TAG
from repro.balance.instrument import LBDatabase
from repro.balance.manager import LBManager, RebalanceReport
from repro.balance.strategies import GreedyLB, Strategy
from repro.core.checkpoint import Checkpointer
from repro.core.isomalloc import IsomallocArena
from repro.core.scheduler import CthScheduler
from repro.core.migration import ThreadMigrator
from repro.core.stacks import make_stack_manager
from repro.core.swapglobal import GlobalRegistry
from repro.core.thread import ThreadState, UThread
from repro.sim.cluster import Cluster
from repro.sim.dispatch import TagDispatcher
from repro.sim.network import Message, Network

__all__ = ["AmpiRuntime"]

_TAG = "ampi"

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
            self.schedulers.append(
                CthScheduler(proc, mgr, globals_registry=registry,
                             emulate_swap=emulate_swap))
        self.migrator = ThreadMigrator(self.cluster, self.schedulers)
        self.migrator.on_arrival = self._thread_arrived
        self.db = LBDatabase(npes)
        self.strategy = strategy or GreedyLB()
        self.lb = LBManager(self.db, self.strategy, self._lb_migrate)
        # rank state
        self.rank_thread: List[UThread] = []
        self.rank_ctx: List[AmpiContext] = []
        self._queues: List[Deque[AmpiMessage]] = [deque()
                                                  for _ in range(num_ranks)]
        #: The park table: rank -> why it is suspended, one plain-data
        #: record (see :mod:`repro.ampi.context`) written by the rank's
        #: blocking operation and deleted by whatever wakes it.
        self.parked: Dict[int, tuple] = {}
        #: Posted (not yet matched) irecv requests, per rank, in post order.
        self._posted: List[List] = [[] for _ in range(num_ranks)]
        self._posts = 0
        self._finished = 0
        #: rank -> key of its most recent coordinated checkpoint.
        self.last_checkpoint: Dict[int, str] = {}
        self.checkpointer = Checkpointer(self.migrator)
        self._lb_moves: List[Tuple[int, int]] = []
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
            TagDispatcher.of(proc).register(_TAG, self._on_message)
        # spawn ranks; default placement is round-robin over processors
        for rank in range(num_ranks):
            pe = placement(rank) if placement else rank % npes
            if not 0 <= pe < npes:
                raise AmpiError(f"placement({rank}) = {pe} out of range")
            ctx = AmpiContext(self, rank)
            thread = self.schedulers[pe].create(
                self._make_body(ctx), name=f"rank{rank}",
                privatize_globals=bool(globals_decl))
            self.rank_thread.append(thread)
            self.rank_ctx.append(ctx)
            self._rank_of_tid[thread.tid] = rank
            self.db.register(rank, pe)

    # ------------------------------------------------------------------
    # rank bodies
    # ------------------------------------------------------------------

    def _make_body(self, ctx: AmpiContext):
        def body(th):
            try:
                # Runtime bookkeeping wrapper, never itself compiled to
                # events: the compiler (ROADMAP 2) transforms the user's
                # main, and this try/finally is the runtime's own
                # completion accounting around it.
                # migralint: disable=FLW002
                yield from self.main(ctx)
            finally:
                self._finished += 1
                self.db.unregister(ctx.rank)
        return body

    # ------------------------------------------------------------------
    # rank-to-rank messaging
    # ------------------------------------------------------------------

    def rank_pe(self, rank: int) -> int:
        """Current processor of a rank."""
        return self.rank_thread[rank].scheduler.processor.id

    def _send(self, src_rank: int, dst_rank: int, data: Any, tag: Any,
              size: int) -> None:
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
        dst = msg.dst
        self.db.record_comm(msg.src, dst, msg.size_bytes)
        # Posted receives match before the unexpected-message queue
        # (standard MPI matching semantics).
        posted = self._posted[dst]
        if posted:
            for i, req in enumerate(posted):
                if msg.matches(req.source, req.tag):
                    del posted[i]
                    req._complete(msg)
                    self._wake_if_satisfied(dst)
                    return
        self._queues[dst].append(msg)
        why = self.parked.get(dst)
        if (why is not None and why[0] == "recv"
                and msg.matches(why[1], why[2])):
            del self.parked[dst]
            self._wake(dst)

    def _wake(self, rank: int) -> None:
        """Make ``rank`` runnable again if it is parked (a rank that is
        READY or running needs no wake-up)."""
        thread = self.rank_thread[rank]
        if thread.state is ThreadState.SUSPENDED:
            thread.scheduler.awaken(thread)

    def _post_recv(self, req) -> None:
        """Post an irecv: match the unexpected queue first, else park it."""
        msg = self._match(req.rank, req.source, req.tag)
        if msg is not None:
            req._complete(msg)
        else:
            req.seq = self._posts
            self._posts += 1
            self._posted[req.rank].append(req)

    def _wake_if_satisfied(self, rank: int) -> None:
        """A posted receive of ``rank`` just completed: resume the rank if
        it is parked in an MPI_Wait* that this satisfies."""
        why = self.parked.get(rank)
        if why is not None and why[0] == "wait":
            _, mode, seqs = why
            pending = {req.seq for req in self._posted[rank]}
            if (pending.isdisjoint(seqs) if mode == "all"
                    else not pending.issuperset(seqs)):
                del self.parked[rank]
                self._wake(rank)

    def _match(self, rank: int, source: int, tag: Any,
               ) -> Optional[AmpiMessage]:
        q = self._queues[rank]
        if not q:
            return None
        any_source = source == ANY_SOURCE
        any_tag = tag == ANY_TAG
        for i, msg in enumerate(q):
            # AmpiMessage.matches, inlined against the two flags.
            if ((any_source or msg.src == source)
                    and (any_tag or msg.tag == tag)):
                if i == 0:
                    q.popleft()
                else:
                    del q[i]
                return msg
        return None

    def _peek(self, rank: int, source: int, tag: Any) -> bool:
        return any(m.matches(source, tag) for m in self._queues[rank])

    # ------------------------------------------------------------------
    # MPI_Migrate / load balancing
    # ------------------------------------------------------------------

    def _release_barrier(self, barrier: tuple, action) -> bool:
        """Collect-and-release, the one shape of both AMPI barriers: once
        every live rank is parked at ``barrier``, run ``action(ranks)``
        and resume them.  Returns whether that happened."""
        ranks = sorted([rank for rank, why in self.parked.items()
                        if why == barrier])
        if not ranks or len(ranks) != self.num_ranks - self._finished:
            return False
        for rank in ranks:
            del self.parked[rank]
        action(ranks)
        for rank in ranks:
            self._wake(rank)
        return True

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

    def _lb_migrate(self, rank: int, dst_pe: int) -> None:
        self._lb_moves.append((rank, dst_pe))

    def _thread_arrived(self, thread: UThread) -> None:
        # Keep the LB database honest about where ranks really are —
        # matters when a migration bounced back to its source processor.
        rank = self._rank_of_tid.get(thread.tid)
        if rank is not None and self.db.tracks(rank):
            self.db.moved(rank, thread.scheduler.processor.id)

    def _run_rebalance(self, ranks: List[int]) -> None:
        self._lb_moves.clear()
        for pe, proc in enumerate(self.cluster.processors):
            self.db.set_pe_speed(pe, max(1e-6, 1.0 - proc.background_load))
        self.rebalance_in_progress = True
        try:
            report = self.lb.rebalance()      # fills _lb_moves
            for rank, dst in self._lb_moves:
                thread = self.rank_thread[rank]
                try:
                    self.migrator.migrate(thread, dst)
                except MigrationAborted:
                    # Abort-and-retry: the abort happened before any
                    # state moved, so one retry is safe; if that aborts
                    # too the rank stays home and the database is told
                    # the truth.
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

    def run(self, max_rounds: int = 10_000_000,
            until: Optional[float] = None,
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
        for _ in range(max_rounds):
            if self.done:
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
            if self._release_barrier(AT_MIGRATE, self._run_rebalance):
                progressed = True
            if self._release_barrier(AT_CHECKPOINT, self._run_checkpoint):
                progressed = True
            if not progressed:
                if bounded:
                    return
                self._raise_deadlock()
        raise AmpiError(f"run() exceeded {max_rounds} scheduling rounds")

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
                f"({self.checkpointer.bytes_written / 1024:.1f} KiB on disk)")
        per_pe = [0.0] * len(self.cluster)
        for p in self.cluster.processors:
            per_pe[p.id] = p.busy_ns
        busiest = max(per_pe)
        if busiest > 0:
            avg = sum(per_pe) / len(per_pe)
            lines.append(f"  processor load   : max/avg = "
                         f"{busiest / avg:.2f}" if avg else "")
        return "\n".join(lines)
