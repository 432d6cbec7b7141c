"""Non-blocking AMPI operations: requests and completion.

Mirrors MPI's ``MPI_Isend``/``MPI_Irecv``/``MPI_Wait*`` family.  Sends are
eager (the simulation buffers unboundedly), so a send request completes
immediately; receive requests complete when a matching message arrives —
posted receives match *before* the unexpected-message queue, the standard
MPI rule, which the tests pin down.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.errors import AmpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.context import AmpiMessage

__all__ = ["Request"]


class Request:
    """Handle for one outstanding non-blocking operation."""

    __slots__ = ("kind", "rank", "source", "tag", "done", "_msg", "seq")

    def __init__(self, kind: str, rank: int, source: int = -1,
                 tag: Any = -1):
        self.kind = kind            # "send" | "recv"
        self.rank = rank            # owning rank
        self.source = source        # recv matching pattern
        self.tag = tag
        self.done = kind == "send"  # eager sends complete at once
        self._msg: Optional["AmpiMessage"] = None
        #: A pending receive's number in its runtime's post order: how a
        #: park record names the requests a rank waits on.
        self.seq: Optional[int] = None

    def _complete(self, msg: Optional["AmpiMessage"]) -> None:
        self._msg = msg
        self.done = True

    @property
    def data(self) -> Any:
        """The received payload (recv requests, after completion)."""
        if not self.done:
            raise AmpiError("request not complete; use wait()")
        if self.kind == "send":
            return None
        assert self._msg is not None
        return self._msg.data

    @property
    def message(self) -> Optional["AmpiMessage"]:
        """The full matched message (recv requests, after completion)."""
        if not self.done:
            raise AmpiError("request not complete; use wait()")
        return self._msg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return (f"<Request {self.kind} rank={self.rank} "
                f"src={self.source} tag={self.tag!r} {state}>")
