"""The per-rank AMPI API object.

Every blocking operation is a generator to be invoked with ``yield from``
inside the rank's main generator; non-blocking operations (``send``,
``iprobe``) are plain methods.  The collectives delegate to the world
:class:`~repro.ampi.communicator.Communicator`, their one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import AmpiError
from repro.ampi.communicator import Communicator
from repro.ampi.datatypes import ANY_SOURCE, ANY_TAG, wire_size
from repro.ampi.request import Request
from repro.core.ranks import matches

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.runtime import AmpiRuntime

__all__ = ["AmpiMessage", "AmpiContext", "AT_MIGRATE", "AT_CHECKPOINT"]

# Why a rank is parked: the plain-data record a blocking operation leaves
# in ``AmpiRuntime.parked`` (its ``RankProtocol``'s table) — a receive's
# ("recv", source, tag); ("wait", mode, seqs) for MPI_Wait*, "all"/"any"
# of the posted receives numbered ``seqs`` (``Request.seq``); AT_MIGRATE
# and AT_CHECKPOINT for the two barriers.
AT_MIGRATE = ("migrate",)
AT_CHECKPOINT = ("checkpoint",)


@dataclass(slots=True)
class AmpiMessage:
    """One rank-to-rank message."""

    src: int
    dst: int
    tag: Any
    data: Any
    size_bytes: int


class AmpiContext:
    """The MPI world as seen by one rank.

    It is also the rank's thread body: the scheduler calls it with the
    thread, and it starts the runtime's ``main`` on itself.
    """

    def __init__(self, runtime: "AmpiRuntime", rank: int):
        self.runtime = runtime
        self.rank = rank

    def __call__(self, thread) -> Generator:
        """The rank's body: ``main(self)``, driven by its thread."""
        return self.runtime.main(self)

    @property
    def size(self) -> int:
        """Number of ranks in the world (MPI_Comm_size)."""
        return self.runtime.num_ranks

    @property
    def thread(self):
        """The migratable user-level thread running this rank."""
        return self.runtime.rank_thread[self.rank]

    @cached_property
    def world(self) -> Communicator:
        """MPI_COMM_WORLD as a :class:`~repro.ampi.communicator.Communicator`.

        The plain context collectives (barrier, bcast, ...) are this
        communicator's.  Built on first use: a rank that never calls a
        collective never pays for it.
        """
        return Communicator(self, self.runtime.world_members, 0)

    def comm_split(self, color: Any, key: Optional[int] = None):
        """MPI_Comm_split on the world (collective).  ``yield from`` it."""
        out = yield from self.world.split(color, key)
        return out

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def send(self, dest: int, data: Any, tag: Any = 0,
             size_bytes: Optional[int] = None) -> None:
        """Buffered send: enqueue ``data`` for ``dest`` and return.

        (MPI_Send with an eager protocol — the simulation has unbounded
        buffering, so sends never block.)  The receiver gets its own
        value: once this returns, the sender may write to ``data``
        freely.  What a rank can send is what PUP can pack
        (:func:`repro.core.pup.freeze_value`); anything else is an
        :class:`~repro.errors.AmpiError` here.
        """
        runtime = self.runtime
        try:
            # The subscript refuses what orders but is no index (1.0).
            bad = (not 0 <= dest < runtime.num_ranks
                   or runtime.rank_thread[dest] is None)
        except TypeError:
            bad = True
        if bad:
            raise AmpiError(f"rank {self.rank}: send to bad rank {dest!r} "
                            f"(size {self.size}, tag={tag!r})")
        if size_bytes is None:
            size_bytes = wire_size(data)
        elif size_bytes < 0:
            # Same-processor sends never reach Cluster.send's check.
            raise AmpiError(f"send of negative size {size_bytes} "
                            f"(rank {self.rank}->{dest}, tag={tag!r})")
        runtime._send(self.rank, dest, data, tag, size_bytes)

    def recv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG,
             ) -> Generator[Any, Any, Any]:
        """Blocking receive; suspends the rank's thread until a match.

        Returns the message *data*; use :meth:`recv_msg` to also see the
        source and tag.
        """
        # recv_msg's loop, not a call to it: one generator frame, not two.
        protocol = self.runtime.protocol
        rank = self.rank
        while True:
            rec = protocol.take(rank, source, tag)
            if rec is not None:
                return rec[2].data
            yield "suspend"

    def recv_msg(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG,
                 ) -> Generator[Any, Any, AmpiMessage]:
        """Blocking receive returning the full :class:`AmpiMessage`."""
        protocol = self.runtime.protocol
        rank = self.rank
        while True:
            rec = protocol.take(rank, source, tag)
            if rec is not None:
                return rec[2]
            yield "suspend"

    # -- non-blocking operations ------------------------------------------

    def isend(self, dest: int, data: Any, tag: Any = 0,
              size_bytes: Optional[int] = None) -> Request:
        """MPI_Isend: start a send; completes immediately (eager/buffered)."""
        self.send(dest, data, tag, size_bytes)
        return Request("send", self.rank)

    def irecv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG) -> Request:
        """MPI_Irecv: post a receive; complete it with :meth:`wait`.

        Posted receives match arriving messages before the unexpected
        queue, in posting order.
        """
        req = Request("recv", self.rank, source, tag)
        self.runtime._post_recv(req)
        return req

    def test(self, req: Request) -> bool:
        """MPI_Test: non-blocking completion check."""
        return req.done

    def wait(self, req: Request) -> Generator[Any, Any, Any]:
        """MPI_Wait: suspend until the request completes; returns its data."""
        while not req.done:
            self._park_on("all", [req])
            yield "suspend"
        return req.data

    def _park_on(self, mode: str, reqs: List[Request]) -> None:
        self.runtime.parked[self.rank] = (
            "wait", mode, tuple(r.seq for r in reqs if not r.done))

    def waitall(self, reqs: List[Request]) -> Generator[Any, Any, List[Any]]:
        """MPI_Waitall: suspend until every request completes."""
        while not all(r.done for r in reqs):
            self._park_on("all", reqs)
            yield "suspend"
        return [r.data for r in reqs]

    def waitany(self, reqs: List[Request],
                ) -> Generator[Any, Any, Tuple[int, Any]]:
        """MPI_Waitany: suspend until one completes; returns (index, data)."""
        if not reqs:
            raise AmpiError("waitany over no requests")
        while not any(r.done for r in reqs):
            self._park_on("any", reqs)
            yield "suspend"
        for i, r in enumerate(reqs):
            if r.done:
                return i, r.data
        raise AssertionError("unreachable")

    def sendrecv(self, dest: int, data: Any, source: int = ANY_SOURCE,
                 tag: Any = 0) -> Generator[Any, Any, Any]:
        """Combined send + receive (MPI_Sendrecv)."""
        self.send(dest, data, tag)
        out = yield from self.recv(source, tag)
        return out

    def iprobe(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        queue = self.runtime.protocol.queues[self.rank] or ()
        return any(matches(src, mtag, source, tag) for src, mtag, _ in queue)

    # ------------------------------------------------------------------
    # collectives: MPI_COMM_WORLD's, implemented once in Communicator
    # ------------------------------------------------------------------

    def barrier(self) -> Generator[Any, Any, None]:
        """MPI_Barrier over the world."""
        yield from self.world.barrier()

    def bcast(self, data: Any, root: int = 0) -> Generator[Any, Any, Any]:
        """MPI_Bcast: binomial-tree broadcast from ``root``."""
        return (yield from self.world.bcast(data, root))

    def reduce(self, value: Any, op: str = "sum", root: int = 0,
               ) -> Generator[Any, Any, Any]:
        """MPI_Reduce: binomial-tree combine toward ``root``."""
        return (yield from self.world.reduce(value, op, root))

    def allreduce(self, value: Any, op: str = "sum",
                  ) -> Generator[Any, Any, Any]:
        """MPI_Allreduce: reduce to rank 0, then broadcast."""
        return (yield from self.world.allreduce(value, op))

    def gather(self, value: Any, root: int = 0,
               ) -> Generator[Any, Any, Optional[List[Any]]]:
        """MPI_Gather: root returns the rank-ordered list, others None."""
        return (yield from self.world.gather(value, root))

    def allgather(self, value: Any) -> Generator[Any, Any, List[Any]]:
        """MPI_Allgather: everyone gets the rank-ordered list."""
        return (yield from self.world.allgather(value))

    def scatter(self, values: Optional[List[Any]], root: int = 0,
                ) -> Generator[Any, Any, Any]:
        """MPI_Scatter: root distributes one value per rank."""
        return (yield from self.world.scatter(values, root))

    def alltoall(self, values: List[Any]) -> Generator[Any, Any, List[Any]]:
        """MPI_Alltoall: element j of my list goes to rank j."""
        return (yield from self.world.alltoall(values))

    # ------------------------------------------------------------------
    # scheduling, time, and migration
    # ------------------------------------------------------------------

    def yield_(self) -> Generator[Any, Any, None]:
        """MPI_Yield: give other ranks on this processor a turn."""
        yield "yield"

    def charge(self, ns: float) -> None:
        """Account ``ns`` of computation (feeds the load balancer too).

        The load database records the *measured* (wall) virtual time, not
        the nominal work — on a processor slowed by external load the same
        work measures longer, which is exactly what lets the balancer shed
        work from busy workstations (paper reference [10]).
        """
        runtime = self.runtime
        rank = self.rank
        thread = runtime.rank_thread[rank]
        proc = thread.scheduler.processor
        before = proc.now
        thread.charge(ns)
        runtime.db.record(rank, proc.now - before)

    def wtime(self) -> float:
        """MPI_Wtime: this rank's processor-local virtual time (ns)."""
        return self.thread.scheduler.processor.now

    @property
    def my_pe(self) -> int:
        """The processor this rank currently runs on."""
        return self.thread.scheduler.processor.id

    def checkpoint(self) -> Generator[Any, Any, None]:
        """Coordinated checkpoint barrier (reference [42]'s protocol).

        All ranks suspend; when the last arrives, every rank's full thread
        image is written to the simulated disk, then all resume.  After a
        failure, :meth:`AmpiRuntime.recover_rank` rebuilds lost ranks from
        these images.
        """
        self.runtime.parked[self.rank] = AT_CHECKPOINT
        yield "suspend"

    def migrate(self) -> Generator[Any, Any, None]:
        """MPI_Migrate: collective load-balancing point.

        All ranks suspend here; when the last one arrives, the runtime's
        strategy decides a new placement and the thread migrator moves
        ranks accordingly — "transparent thread migration without having
        to change any of the benchmark code" (Section 4.5).
        """
        self.runtime.parked[self.rank] = AT_MIGRATE
        yield "suspend"
