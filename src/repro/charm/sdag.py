"""Structured Dagger (SDAG): coordination constructs for chares.

Section 2.4.2 of the paper: SDAG lets a chare express its life cycle as
straight-line code with ``when``/``overlap``/``atomic`` constructs instead
of inverted event-handler style; a preprocessor turns the syntax into an
efficient finite-state machine.

Here the "preprocessor output" is a driver over a Python generator: an SDAG
entry method is a generator method that yields :class:`When` /
:class:`Overlap` / :class:`Atomic` directives.  The Figure 1 stencil
program becomes::

    class Stencil(Chare):
        def lifecycle(self):                       # entry void stencilLifeCycle()
            for i in range(MAX_ITER):              # for (i=0; i<MAX_ITER; i++)
                self.send_strips()                 # atomic {...}
                left, right = yield Overlap(       # overlap {
                    When("strip_from_left"),       #   when getStripFromLeft(...)
                    When("strip_from_right"))      #   when getStripFromRight(...)
                self.do_work(left, right)          # atomic { doWork(); }

The driver buffers messages per name, so the two strips "can occur and be
processed in any order" — exactly the overlap semantics; ordinary Python
code between yields is atomic by construction (one entry method runs at a
time per processor), matching the ``atomic`` construct.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

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
        if not whens or not all(isinstance(w, When) for w in whens):
            raise SdagError("Overlap takes one or more When clauses")
        object.__setattr__(self, "whens", tuple(whens))


@dataclass(frozen=True)
class Atomic:
    """Run a callable as an explicit atomic block; yields its result.

    Provided for fidelity with the paper's syntax — plain Python code
    between yields is equally atomic.
    """

    fn: Callable[[], Any]


class SdagDriver:
    """The finite-state machine driving one chare's SDAG entry method.

    The driver owns per-name message buffers; arriving messages either
    satisfy the directive currently waited on or are buffered for a later
    ``when`` — "the Structured Dagger preprocessor transforms all this
    syntax into code for an efficient finite-state machine".
    """

    def __init__(self, gen: Generator, on_finish: Optional[Callable[[], None]] = None):
        self.gen = gen
        self.buffers: Dict[str, deque] = {}
        self._waiting: Optional[Tuple[When, ...]] = None
        self._collected: Dict[int, List[Any]] = {}
        self.finished = False
        self.on_finish = on_finish

    # -- message intake -----------------------------------------------------

    def wants(self, name: str) -> bool:
        """Whether this driver will ever consume messages named ``name``.

        The runtime uses this to decide between buffering for the driver
        and invoking a plain entry method.  Conservatively true — SDAG
        methods receive through the driver for their whole life.
        """
        return not self.finished

    def deliver(self, name: str, payload: Any) -> None:
        """Feed one message to the driver; advances the FSM if unblocked."""
        if self.finished:
            raise SdagError(f"message {name!r} delivered to finished driver")
        self.buffers.setdefault(name, deque()).append(payload)
        self._try_advance()

    # -- FSM ---------------------------------------------------------------

    def start(self) -> None:
        """Begin executing the entry method."""
        self._step(None)

    def _step(self, send_value: Any) -> None:
        while True:
            try:
                directive = self.gen.send(send_value)
            except StopIteration:
                self.finished = True
                if self.on_finish:
                    self.on_finish()
                return
            if isinstance(directive, Atomic):
                send_value = directive.fn()
                continue
            if isinstance(directive, When):
                directive = Overlap(directive)
                single = True
            elif isinstance(directive, Overlap):
                single = False
            else:
                raise SdagError(
                    f"SDAG method yielded {directive!r}; expected "
                    f"When/Overlap/Atomic")
            self._waiting = directive.whens
            self._waiting_single = single
            self._collected = {i: [] for i in range(len(directive.whens))}
            if not self._try_advance():
                return
            # _try_advance re-entered _step; unwind this frame.
            return

    def _try_advance(self) -> bool:
        """If the waited-on directive is satisfiable from buffers, resume.

        Returns True when the FSM advanced (and this call re-entered
        :meth:`_step`).
        """
        if self._waiting is None:
            return False
        # Draw buffered messages into each clause, up to its count.
        for i, w in enumerate(self._waiting):
            got = self._collected[i]
            buf = self.buffers.get(w.name)
            while buf and len(got) < w.count:
                got.append(buf.popleft())
        if not all(len(self._collected[i]) == w.count
                   for i, w in enumerate(self._waiting)):
            return False
        results = []
        for i, w in enumerate(self._waiting):
            vals = self._collected[i]
            results.append(vals[0] if w.count == 1 else list(vals))
        value = results[0] if self._waiting_single else tuple(results)
        self._waiting = None
        self._collected = {}
        self._step(value)
        return True

    @property
    def waiting_on(self) -> List[str]:
        """Names of messages the driver is currently blocked on."""
        if self._waiting is None:
            return []
        return [w.name for w in self._waiting]
