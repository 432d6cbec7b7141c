"""Structured Dagger (SDAG): coordination constructs for chares.

Section 2.4.2 of the paper: SDAG lets a chare express its life cycle as
straight-line code with ``when``/``overlap``/``atomic`` constructs instead
of inverted event-handler style; a preprocessor turns the syntax into an
efficient finite-state machine.

Here nothing is compiled: an SDAG entry method is a generator method that
yields :class:`When` / :class:`Overlap` / :class:`Atomic` directives, and
:class:`SdagDriver` is a driven state machine over it — the generator's
suspended frame is the state.  The Figure 1 stencil program becomes::

    class Stencil(Chare):
        def lifecycle(self):                       # entry void stencilLifeCycle()
            for i in range(MAX_ITER):              # for (i=0; i<MAX_ITER; i++)
                self.send_strips()                 # atomic {...}
                left, right = yield Overlap(       # overlap {
                    When("strip_from_left"),       #   when getStripFromLeft(...)
                    When("strip_from_right"))      #   when getStripFromRight(...)
                self.do_work(left, right)          # atomic { doWork(); }

Each chare has one driver, holding its one per-name buffer of ``when``
messages: the two strips "can occur and be processed in any order" —
exactly the overlap semantics — and a message that arrives before the
method waiting for it (or before the method starts) waits in the same
buffer.  The driver resumes the generator in one loop until a directive
the buffer cannot satisfy yet, so any number of buffered messages drain
at a constant stack depth.  Ordinary Python code between yields is atomic
by construction (one entry method runs at a time per processor), matching
the ``atomic`` construct.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.errors import SdagError

__all__ = ["When", "Overlap", "Atomic", "SdagDriver", "SdagError"]


@dataclass(frozen=True)
class When:
    """Wait for one message named ``name``; yields its payload.

    ``count`` waits for that many messages of the name, returned as a list
    (the paper's iterative patterns, e.g. "process A and B messages in
    alternating sequence k times", compose from this and plain loops).
    """

    name: str
    count: int = 1


@dataclass(frozen=True)
class Overlap:
    """Wait for several :class:`When` clauses, satisfiable in any order.

    Yields a tuple of payloads in *declaration* order, regardless of the
    order the messages arrived — the message-order independence the
    ``overlap`` construct asserts.
    """

    whens: Tuple[When, ...]

    def __init__(self, *whens: When):
        if not whens:
            raise SdagError("Overlap takes one or more When clauses")
        need: Dict[str, int] = {}
        for w in whens:
            if not isinstance(w, When):
                raise SdagError(f"Overlap takes When clauses, not {w!r}")
            need[w.name] = need.get(w.name, 0) + w.count
        object.__setattr__(self, "whens", whens)
        #: How many messages of each name the clauses take together.
        object.__setattr__(self, "need", tuple(need.items()))


@dataclass(frozen=True)
class Atomic:
    """Run a callable as an explicit atomic block; yields its result.

    Provided for fidelity with the paper's syntax — plain Python code
    between yields is equally atomic.
    """

    fn: Callable[[], Any]


_BLOCKED = object()     # what :meth:`SdagDriver._take` returns when it cannot


class SdagDriver:
    """One chare's SDAG state machine: its per-name buffer of ``when``
    messages, and at most one live continuation drawing from it.

    :meth:`deliver` appends a message to the buffer; :meth:`start` begins
    a continuation.  Either then runs :meth:`_advance`, the one loop, which
    resumes the generator until it waits on a directive the buffer cannot
    satisfy yet, or returns.  Messages no continuation has taken stay in
    the buffer for the next one, as Charm++'s per-object buffer keeps them.
    """

    def __init__(self, gen: Optional[Generator] = None):
        self.buffers: Dict[str, deque] = {}
        #: The live continuation; ``None`` once it has returned.
        self.gen = gen
        self._waiting: Union[When, Overlap, None] = None

    @property
    def finished(self) -> bool:
        """No continuation is live: none started, or the last returned."""
        return self.gen is None

    def deliver(self, name: str, payload: Any) -> None:
        """Buffer one message; a continuation waiting on it advances."""
        buf = self.buffers.get(name)
        if buf is None:
            buf = self.buffers[name] = deque()
        buf.append(payload)
        if self._waiting is not None:
            self._advance(None)

    def start(self, gen: Optional[Generator] = None) -> None:
        """Begin ``gen`` (or the generator the driver was made with); the
        previous continuation must have finished."""
        if gen is not None:
            self.gen = gen
        self._advance(None)

    def _advance(self, value: Any) -> None:
        try:
            while True:
                waiting = self._waiting
                if waiting is not None:
                    value = self._take(waiting)
                    if value is _BLOCKED:
                        return
                    self._waiting = None
                try:
                    directive = self.gen.send(value)
                except StopIteration:
                    self.gen = None
                    return
                if isinstance(directive, Atomic):
                    value = directive.fn()
                elif isinstance(directive, (When, Overlap)):
                    self._waiting = directive
                else:
                    raise SdagError(
                        f"SDAG method {self.gen.__name__!r} yielded "
                        f"{directive!r}; expected When/Overlap/Atomic")
        except BaseException:
            # A continuation that raised (or yielded no directive) is
            # over: the chare takes its next SDAG method, and checkpoints.
            self.gen = None
            self._waiting = None
            raise

    def _take(self, directive: Union[When, Overlap]) -> Any:
        """Draw ``directive``'s value from the buffers, or return
        ``_BLOCKED`` and draw nothing when they cannot satisfy it."""
        buffers = self.buffers
        if isinstance(directive, When):
            buf = buffers.get(directive.name)
            if buf is None or len(buf) < directive.count:
                return _BLOCKED
            return _pop(buf, directive.count)
        for name, count in directive.need:
            buf = buffers.get(name)
            if buf is None or len(buf) < count:
                return _BLOCKED
        return tuple([_pop(buffers[w.name], w.count) for w in directive.whens])

    @property
    def waiting_on(self) -> List[str]:
        """Names of messages the continuation is currently blocked on."""
        waiting = self._waiting
        if isinstance(waiting, When):
            return [waiting.name]
        return [w.name for w in waiting.whens] if waiting else []


def _pop(buf: deque, count: int) -> Any:
    """One payload, or a list of ``count`` (a ``When`` with a count)."""
    if count == 1:
        return buf.popleft()
    return [buf.popleft() for _ in range(count)]
