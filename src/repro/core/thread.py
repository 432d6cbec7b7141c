"""User-level threads (Converse-style "Cth" threads, paper Section 2.3).

A :class:`UThread` is one flow of control: a body (a Python generator
function — the coarse emulation of a C stack documented in DESIGN.md), a
simulated stack managed by one of the Section 3.4 techniques, an optional
isomalloc heap, an optional private set of global variables, and a saved
register image.

Thread bodies are generator functions taking the thread as their argument
and yielding scheduler directives::

    def body(th):
        data = th.malloc(64)                  # migratable heap
        th.write_word(data, 42)
        yield "yield"                          # CthYield
        assert th.read_word(data) == 42        # still valid — even after
        yield "suspend"                        # CthSuspend until awakened
        # falling off the end is CthExit

Nested blocking calls use ``yield from`` (e.g. the AMPI layer's
``comm.recv``).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.errors import ThreadError
from repro.core.stacks import StackRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import CthScheduler
    from repro.core.swapglobal import GlobalOffsetTable

__all__ = ["ThreadState", "UThread", "ThreadBody"]

#: Signature of a thread body.
ThreadBody = Callable[["UThread"], Generator[Any, Any, Any]]


class ThreadState(enum.Enum):
    """Lifecycle states of a user-level thread."""

    CREATED = "created"
    READY = "ready"          # on the scheduler's run queue
    RUNNING = "running"      # the processor's current flow of control
    SUSPENDED = "suspended"  # waiting for CthAwaken
    MIGRATING = "migrating"  # packed and in flight between processors
    FINISHED = "finished"


class UThread:
    """One migratable user-level thread.

    Application code should create threads through
    :meth:`repro.core.scheduler.CthScheduler.create` rather than directly.
    """

    def __init__(self, tid: tuple, body: ThreadBody,
                 scheduler: "CthScheduler", stack: StackRecord,
                 name: str = ""):
        #: Globally unique id: (birth processor, sequence number).
        self.tid = tid
        self.name = name or f"t{tid[0]}.{tid[1]}"
        self.body = body
        self.scheduler = scheduler
        self.stack = stack
        self.state = ThreadState.CREATED
        #: Private global-variable set, if privatized (isomalloc threads).
        self.got: Optional["GlobalOffsetTable"] = None
        #: Scheduling priority (smaller runs first under the priority policy).
        self.priority = 0
        #: Kernel slot of this thread's pending resumption: set by the
        #: hosting scheduler when it queues the thread, dropped when the
        #: resumption fires or is unqueued.
        self.queued: Optional[list] = None
        self._gen: Optional[Generator] = None
        #: Value injected into the generator at the next resume
        #: (used by AMPI to deliver a received message).
        self.resume_value: Any = None
        # -- statistics ------------------------------------------------------
        self.switches = 0
        self.migrations = 0
        self.work_ns = 0.0

    # ------------------------------------------------------------------
    # memory interface for body code
    # ------------------------------------------------------------------

    @property
    def space(self):
        """The address space of the processor this thread resides on."""
        return self.scheduler.space

    def malloc(self, nbytes: int) -> int:
        """Allocate migratable heap memory (isomalloc interposition).

        Inside a thread context allocation is redirected to the thread's
        isomalloc slot, per the paper's malloc-interposition extension;
        threads whose stack technique owns no slot cannot allocate
        migratable heap.
        """
        if self.stack.slot is None:
            raise ThreadError(
                f"{self.name}: no isomalloc slot — migratable heap needs "
                f"isomalloc threads")
        return self.stack.slot.malloc(nbytes)

    def free(self, addr: int) -> None:
        """Free memory from :meth:`malloc`."""
        if self.stack.slot is None:
            raise ThreadError(f"{self.name}: no isomalloc slot")
        self.stack.slot.free(addr)

    def _in_own_stack(self, address: int) -> bool:
        return self.stack.base <= address < self.stack.top

    def read(self, address: int, length: int) -> bytes:
        """Read simulated memory as this thread (stack-aware).

        Reads of the thread's own stack work whether or not the thread is
        the active one on a single-address stack technique.
        """
        if self._in_own_stack(address):
            return self.scheduler.stack_manager.stack_read(
                self.stack, address - self.stack.base, length)
        return self.space.read(address, length)

    def write(self, address: int, payload: bytes) -> None:
        """Write simulated memory as this thread (stack-aware)."""
        if self._in_own_stack(address):
            self.scheduler.stack_manager.stack_write(
                self.stack, address - self.stack.base, payload)
        else:
            self.space.write(address, payload)

    def read_word(self, address: int) -> int:
        """Read one machine word."""
        return int.from_bytes(self.read(address, self.space.layout.word_bytes),
                              "little")

    def write_word(self, address: int, value: int) -> None:
        """Write one machine word."""
        self.write(address,
                   value.to_bytes(self.space.layout.word_bytes, "little"))

    def alloca(self, nbytes: int) -> int:
        """Consume stack space (models alloca()); returns the block address.

        This is the knob the Figure 9 experiment turns: live stack bytes
        are what stack-copying threads pay to switch.
        """
        self.stack.consume(nbytes)
        return self.stack.top - self.stack.used_bytes

    def charge(self, ns: float) -> None:
        """Account ``ns`` of computation to this thread and its processor."""
        self.work_ns += ns
        self.scheduler.processor.charge(ns)

    # ------------------------------------------------------------------
    # globals
    # ------------------------------------------------------------------

    def global_read_int(self, name: str) -> int:
        """Read a global variable as this thread sees it."""
        self.scheduler.ensure_got(self)
        return self.scheduler.globals_registry.read_int(name)

    def global_write_int(self, name: str, value: int) -> None:
        """Write a global variable as this thread sees it."""
        self.scheduler.ensure_got(self)
        self.scheduler.globals_registry.write_int(name, value)

    # ------------------------------------------------------------------
    # generator protocol (driven by the scheduler)
    # ------------------------------------------------------------------

    def step(self) -> Any:
        """Advance the body to its next directive.

        Returns the yielded directive, or ``"exit"`` when the body
        finishes.  Only the scheduler calls this.
        """
        gen = self._gen
        if gen is None:
            if self.state is ThreadState.FINISHED:
                return "exit"           # CthExit dropped the body
            gen = self._gen = self.body(self)
        value = self.resume_value
        try:
            if value is None:
                return next(gen)         # send(None), for any iterator
            self.resume_value = None
            send = getattr(gen, "send", None)
            if send is None:
                # A plain iterator body (no send protocol): the value
                # is dropped and the iterator just advances.
                return next(gen)
            return send(value)
        except StopIteration:
            return "exit"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UThread {self.name} {self.state.value}>"
