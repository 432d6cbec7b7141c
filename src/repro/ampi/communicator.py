"""Communicators: MPI_COMM_WORLD, MPI_Comm_split and the collectives.

A :class:`Communicator` is an ordered group of world ranks with its own
rank numbering, tag namespace, and collective operations — the one
implementation of every collective, for the world
(:attr:`AmpiContext.world <repro.ampi.context.AmpiContext.world>`, which
the context's ``barrier``/``bcast``/... delegate to) and for
sub-communicators alike.  ``split`` is the standard MPI collective: ranks
calling with the same ``color`` end up in one sub-communicator, ordered
by ``key`` (ties by world rank).

Collectives are built from the context's point-to-point messages with
internal tags, so their traffic pays latency and bandwidth on the
simulated network like everything else; the tags carry the communicator
id, so traffic on different communicators never cross-matches — pinned
down by the tests.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import AmpiError
from repro.ampi.datatypes import ANY_SOURCE, ANY_TAG, apply_op

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.context import AmpiContext

__all__ = ["Communicator"]


class _AnyTagOf:
    """Tag pattern equal to every point-to-point tag of one communicator.

    Stands where the rank protocol expects a tag: ``tag == pattern`` falls
    through the tuple's own comparison to :meth:`__eq__` here, so a
    wildcard receive on a communicator suspends in the ordinary matcher
    and still never sees a sibling communicator's (or the world's) traffic.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: Tuple):
        self.prefix = prefix

    def __eq__(self, tag: Any) -> bool:
        return (isinstance(tag, tuple) and len(tag) == len(self.prefix) + 1
                and tag[:-1] == self.prefix)

    def __repr__(self) -> str:
        return repr(self.prefix + ("*",))


class Communicator:
    """An ordered group of world ranks with its own collectives.

    Every member must call a collective, in the same order.  The tree
    algorithms work on root-relative local ranks, so any size (not only
    powers of two) and any root cost log2(size) rounds.

    Attributes
    ----------
    members:
        World ranks in this communicator, in local-rank order (shared,
        not copied: every rank's world holds the runtime's one list).
    rank:
        This process's local rank within the communicator.
    """

    def __init__(self, ctx: "AmpiContext", members: List[int],
                 comm_id: Any):
        try:
            self.rank = members.index(ctx.rank)
        except ValueError:
            raise AmpiError(f"world rank {ctx.rank} is not a member of "
                            f"this communicator") from None
        self.ctx = ctx
        self.members = members
        self.comm_id = comm_id
        #: Tag prefix of the collectives: the world (id 0) uses the bare
        #: ``("__bc", seq)`` form its replay digests pin.
        self._ns: Tuple = () if comm_id == 0 else ("__comm", comm_id)
        #: Tag prefix of this communicator's point-to-point messages.
        self._p2p: Tuple = ("__comm", comm_id, "p2p")
        self._seq = 0
        self._splits = 0

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self.members)

    def world_rank(self, local: int) -> int:
        """Translate a local rank to a world rank."""
        if not 0 <= local < self.size:
            raise AmpiError(f"bad local rank {local} (size {self.size})")
        return self.members[local]

    def _tag(self, kind: str) -> Tuple:
        """A fresh internal tag; members agree on it by calling order."""
        self._seq += 1
        return self._ns + (kind, self._seq)

    # ------------------------------------------------------------------
    # point-to-point in local ranks
    # ------------------------------------------------------------------

    def send(self, dest: int, data: Any, tag: Any = 0,
             size_bytes: Optional[int] = None) -> None:
        """Send to a *local* rank of this communicator."""
        self.ctx.send(self.world_rank(dest), data, tag=self._p2p + (tag,),
                      size_bytes=size_bytes)

    def recv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG,
             ) -> Generator[Any, Any, Any]:
        """Receive from a *local* rank of this communicator.

        A wildcard ``tag`` matches this communicator's point-to-point
        traffic only, and suspends until some arrives.
        """
        world_src = (ANY_SOURCE if source == ANY_SOURCE
                     else self.world_rank(source))
        match_tag = (_AnyTagOf(self._p2p) if tag == ANY_TAG
                     else self._p2p + (tag,))
        out = yield from self.ctx.recv(source=world_src, tag=match_tag)
        return out

    # ------------------------------------------------------------------
    # collectives (local-rank semantics)
    # ------------------------------------------------------------------

    def barrier(self) -> Generator[Any, Any, None]:
        """MPI_Barrier: binomial reduce-to-0 then binomial release.

        2·log2(P) rounds instead of the linear gather a naive
        implementation uses — the root never handles more than log2(P)
        messages.
        """
        yield from self.reduce(0, op="sum", root=0)
        yield from self.bcast(None, root=0)

    def bcast(self, data: Any, root: int = 0) -> Generator[Any, Any, Any]:
        """MPI_Bcast: binomial-tree broadcast from local rank ``root``.

        Round k: every rank that already has the value and whose
        root-relative id is below 2^k forwards it 2^k ranks ahead —
        log2(P) rounds, each rank sends at most log2(P) messages.
        """
        tag = self._tag("__bc")
        size = self.size
        members = self.members
        me = (self.rank - root) % size
        if me != 0:
            parent_rel = me - (1 << (me.bit_length() - 1))
            data = yield from self.ctx.recv(
                source=members[(parent_rel + root) % size], tag=tag)
        k = 1
        while k < size:
            if me < k and me + k < size:
                self.ctx.send(members[(me + k + root) % size], data, tag=tag)
            k <<= 1
        return data

    def reduce(self, value: Any, op: str = "sum", root: int = 0,
               ) -> Generator[Any, Any, Any]:
        """MPI_Reduce: binomial-tree combine toward local rank ``root``.

        Each rank combines its children's partials (in ascending child
        order, so the fold order is deterministic) and forwards one
        message to its parent — log2(P) rounds.
        """
        tag = self._tag("__red")
        size = self.size
        members = self.members
        me = (self.rank - root) % size
        acc = value
        k = 1
        while k < size:
            if me & k:
                self.ctx.send(members[(me - k + root) % size], acc, tag=tag)
                return None
            if me + k < size:
                partial = yield from self.ctx.recv(
                    source=members[(me + k + root) % size], tag=tag)
                acc = apply_op(op, [acc, partial])
            k <<= 1
        return acc

    def allreduce(self, value: Any, op: str = "sum",
                  ) -> Generator[Any, Any, Any]:
        """MPI_Allreduce: reduce to local rank 0, then broadcast."""
        partial = yield from self.reduce(value, op=op, root=0)
        out = yield from self.bcast(partial, root=0)
        return out

    def gather(self, value: Any, root: int = 0,
               ) -> Generator[Any, Any, Optional[List[Any]]]:
        """MPI_Gather: ``root`` returns the local-rank-ordered list,
        others None."""
        tag = self._tag("__gat")
        if self.rank != root:
            self.ctx.send(self.world_rank(root), value, tag=tag)
            return None
        local = {world: i for i, world in enumerate(self.members)}
        out: List[Any] = [None] * self.size
        out[root] = value
        for _ in range(self.size - 1):
            msg = yield from self.ctx.recv_msg(tag=tag)
            out[local[msg.src]] = msg.data
        return out

    def allgather(self, value: Any) -> Generator[Any, Any, List[Any]]:
        """MPI_Allgather: everyone gets the local-rank-ordered list."""
        gathered = yield from self.gather(value, root=0)
        out = yield from self.bcast(gathered, root=0)
        return out

    def scatter(self, values: Optional[List[Any]], root: int = 0,
                ) -> Generator[Any, Any, Any]:
        """MPI_Scatter: ``root`` distributes one value per member."""
        tag = self._tag("__sca")
        if self.rank != root:
            out = yield from self.ctx.recv(source=self.world_rank(root),
                                           tag=tag)
            return out
        if values is None or len(values) != self.size:
            raise AmpiError(
                f"scatter needs exactly {self.size} values at root")
        for i, world in enumerate(self.members):
            if i != root:
                self.ctx.send(world, values[i], tag=tag)
        return values[root]

    def alltoall(self, values: List[Any]) -> Generator[Any, Any, List[Any]]:
        """MPI_Alltoall: element j of my list goes to local rank j."""
        tag = self._tag("__a2a")
        if len(values) != self.size:
            raise AmpiError(f"alltoall needs exactly {self.size} values")
        for i, world in enumerate(self.members):
            if i != self.rank:
                self.ctx.send(world, values[i], tag=tag)
        local = {world: i for i, world in enumerate(self.members)}
        out: List[Any] = [None] * self.size
        out[self.rank] = values[self.rank]
        for _ in range(self.size - 1):
            msg = yield from self.ctx.recv_msg(tag=tag)
            out[local[msg.src]] = msg.data
        return out

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------

    def split(self, color: Any, key: Optional[int] = None,
              ) -> Generator[Any, Any, Optional["Communicator"]]:
        """MPI_Comm_split: partition members by color, order by key.

        Every member must call this collectively.  ``color=None`` opts out
        (MPI_UNDEFINED) and yields ``None``.  Returns the new communicator
        for this rank's color group.
        """
        key = self.rank if key is None else key
        triples = yield from self.allgather((color, key, self.ctx.rank))
        if color is None:
            return None
        group = sorted((k, w) for (c, k, w) in triples
                       if c == color)
        members = [w for _, w in group]
        # Deterministic id without negotiation: split is collective, so
        # every member's per-parent split counter agrees; the group's first
        # member separates colors.  Ids are tuples, which tags carry fine.
        self._splits += 1
        comm_id = (self.comm_id, "split", self._splits, members[0])
        return Communicator(self.ctx, members, comm_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Communicator #{self.comm_id} rank {self.rank}/"
                f"{self.size} members={self.members}>")
