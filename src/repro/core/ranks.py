"""The rank protocol: how a rank waits for a message or a barrier.

AMPI ranks suspend in a receive and resume when a matching message
arrives (Sections 3.4 and 4.5).  ``FlowWorld`` and ``AmpiRuntime`` each
hold one :class:`RankProtocol`; each keeps only its transport (what
calls ``arrive``) and its resume (of the ranks ``arrive``/``release``
hand back).  A queued payload is already the receiver's own value: each
transport takes ownership before it calls ``arrive``
(:func:`repro.core.pup.freeze_value` / :func:`~repro.core.pup.thaw_value`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReproError

__all__ = ["ANY_SOURCE", "ANY_TAG", "matches", "RankProtocol"]

#: The wildcards of a receive's ``(source, tag)`` pattern.
ANY_SOURCE = ANY_TAG = -1


def matches(src: int, tag: Any, source: int, pattern: Any) -> bool:
    """Whether a message from ``src`` tagged ``tag`` satisfies a receive
    of ``(source, pattern)``.  ``arrive`` and ``take`` inline it."""
    return ((src == source or source == ANY_SOURCE)
            and (tag == pattern or pattern == ANY_TAG))


class RankProtocol:
    """The four decisions of ``nranks`` ranks' messaging: the queue of
    unexpected ``(src, tag, payload)`` records with FIFO matching, the
    wildcard, the park table with its wake rule, and barriers.

    ``queues[rank]`` stays ``None`` until the rank's first message.
    ``parked`` maps a suspended rank to one plain record — a receive is
    ``("recv", source, tag)``, a runtime adds its own — written by the
    blocking operation, deleted by whatever wakes the rank.  A refused
    receive raises ``error``.
    """

    __slots__ = ("nranks", "error", "queues", "parked")

    def __init__(self, nranks: int, error: type = ReproError) -> None:
        self.nranks = nranks
        self.error = error
        self.queues: List[Optional[List[tuple]]] = [None] * nranks
        self.parked: Dict[int, tuple] = {}

    def arrive(self, dst: int, src: int, tag: Any, payload: Any) -> bool:
        """Queue a message for ``dst``; True when it matches the receive
        ``dst`` is parked in, whose record is then gone."""
        queue = self.queues[dst]
        if queue is None:
            queue = self.queues[dst] = []
        queue += ((src, tag, payload),)     # no call, unlike ``append``
        parked = self.parked
        if dst in parked:
            why = parked[dst]
            if (why[0] == "recv"
                    and (src == why[1] or why[1] == ANY_SOURCE)
                    and (tag == why[2] or why[2] == ANY_TAG)):
                del parked[dst]
                return True
        return False

    def take(self, rank: int, source: int, tag: Any) -> Optional[tuple]:
        """Remove and return ``rank``'s first queued record matching
        ``(source, tag)``.  With none, park ``rank`` in that receive and
        return ``None`` — refusing a source outside the world, so only a
        receive that would wait pays for the test."""
        queue = self.queues[rank]
        if queue:
            i = 0       # a counter: ``enumerate`` costs more than the scan
            for rec in queue:
                if ((rec[0] == source or source == ANY_SOURCE)
                        and (rec[1] == tag or tag == ANY_TAG)):
                    del queue[i]
                    return rec
                i += 1
        if source != ANY_SOURCE and not 0 <= source < self.nranks:
            raise self.error(f"rank {rank}: receive from bad rank {source} "
                             f"(size {self.nranks})")
        self.parked[rank] = ("recv", source, tag)
        return None

    def release(self, record: tuple, quorum: int) -> List[int]:
        """Once exactly ``quorum`` ranks are parked at ``record``, drop
        their records and return them in rank order; else nothing."""
        parked = self.parked
        if len(parked) < quorum:
            return []
        ranks = sorted([rank for rank, why in parked.items()
                        if why == record])
        if len(ranks) != quorum:
            return []
        for rank in ranks:
            del parked[rank]
        return ranks
