"""The Converse-style user-level thread scheduler (CthCreate/CthYield/...).

One :class:`CthScheduler` runs on each simulated processor.  It owns the
run queue, drives thread bodies through their generator protocol, charges
the platform's context-switch costs to the processor clock, performs the
stack technique's switch-in/switch-out work, swaps private GOTs, and — when
``emulate_swap`` is on — executes the paper's minimal swap routines against
simulated memory so that a suspended thread's register image physically
lives on its own stack (and therefore migrates with it).

Scheduling is the simple structure the paper recommends for many
applications: "a circular linked list of runnable threads" (Section 4.3) —
a FIFO ready queue — plus suspend/awaken.

Since the run-loop unification the ready queue is not a hand-rolled
deque: each runnable thread's next resumption is a scheduled event on a
per-processor :class:`repro.kernel.EventKernel` (category
``"cth.resume"``), making threads literally "a veneer over events" — the
paper's interchangeability claim, enforced architecturally.  Under the
``"fifo"`` policy every resumption is scheduled at key 0.0 so the
kernel's ``(time, seq)`` tie-break reproduces FIFO order exactly; under
``"priority"`` the key is the thread's priority, and the same tie-break
keeps equal priorities stable — bit-for-bit the orders the old deque
produced.  The ready queue *is* that kernel (``len(sched.kernel)``
runnable threads, ``sched.kernel.empty``); each thread holds the slot of
its own pending resumption (``UThread.queued``), so taking a thread
back out — migration, checkpoint restore — is one O(1)
:meth:`CthScheduler.unqueue`, never a search of the queue.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import SchedulerError, ThreadError
from repro.kernel import EventKernel
from repro.core.context import SWAP32, SWAP64, MinimalSwap, RegisterFile
from repro.core.stacks import StackManager
from repro.core.swapglobal import GlobalOffsetTable, GlobalRegistry
from repro.core.thread import ThreadBody, ThreadState, UThread
from repro.sim.processor import Processor

__all__ = ["CthScheduler"]


class CthScheduler:
    """User-level thread scheduler for one simulated processor.

    Parameters
    ----------
    processor:
        The simulated processor this scheduler runs on.
    stack_manager:
        Which Section 3.4 stack technique backs the threads.
    globals_registry:
        Optional program globals; threads created with
        ``privatize_globals=True`` get a private copy swapped in at each
        switch.
    emulate_swap:
        Execute the Figure 10 minimal swap routines for real on each
        switch (slower to simulate; on by default only in tests).
    """

    def __init__(self, processor: Processor, stack_manager: StackManager,
                 globals_registry: Optional[GlobalRegistry] = None,
                 emulate_swap: bool = False, policy: str = "fifo",
                 io_mode: str = "intercept"):
        if policy not in ("fifo", "priority"):
            raise SchedulerError(f"unknown scheduling policy {policy!r}")
        if io_mode not in ("intercept", "naive", "activations"):
            raise SchedulerError(f"unknown io mode {io_mode!r}")
        #: "fifo" is the paper's circular run queue; "priority" lets the
        #: application's priority structure drive scheduling directly
        #: (Section 2.3's flexibility argument for user-level threads).
        self.policy = policy
        #: How blocking calls are treated: "naive" stalls the whole
        #: processor (the kernel suspends the enclosing process, Section
        #: 2.3's disadvantage); "intercept" replaces the call with a
        #: non-blocking one and runs other threads meanwhile (the smarter
        #: runtime layer of [1]); "activations" gets the same overlap via
        #: a kernel upcall to the user scheduler at block and unblock —
        #: scheduler activations [3, 38] — paying two kernel crossings.
        self.io_mode = io_mode
        #: Kernel upcalls performed (scheduler activations mode).
        self.upcalls = 0
        self.processor = processor
        self.profile = processor.profile
        self.space = processor.space
        self.stack_manager = stack_manager
        self.globals_registry = globals_registry
        self.emulate_swap = emulate_swap
        self.arch = "x86_32" if self.space.layout.word_bits == 32 else "x86_64"
        self.swap: MinimalSwap = SWAP32 if self.arch == "x86_32" else SWAP64
        #: The processor's one physical register file; suspended threads'
        #: registers live on their stacks (when swap emulation is on).
        self.machine_regs = RegisterFile(self.arch)
        #: The per-processor event kernel; each pending thread resumption
        #: is one scheduled event on it.  Causality checking is off: the
        #: "time" axis here is a scheduling key (0.0 under FIFO, the
        #: thread priority under "priority"), not a clock.
        self.kernel = EventKernel(name=f"cth-pe{processor.id}",
                                  causality=False)
        #: The one resumption callable every post hands the kernel, kept
        #: on the instance because a post reads it faster there than off
        #: the class: the plain function, not a bound method (that would
        #: point back at the scheduler).
        self._resume_fn = CthScheduler._resume
        #: Called with each thread whose body is over — it returned, or
        #: it raised (then before the exception leaves the dispatch).
        self.on_exit: Optional[Callable[[UThread], None]] = None
        self.current: Optional[UThread] = None
        self.threads: Dict[tuple, UThread] = {}
        self._seq = 0
        # context slots (saved stack pointers) for swap emulation
        self._ctx_mapping = None
        self._ctx_slots: Dict[Any, int] = {}
        self._ctx_next = 0
        if emulate_swap:
            # The scheduler's own ("main") stack, so the swap routine has a
            # valid place to push the machine registers when leaving main.
            self._main_stack = self.space.mmap(
                4 * self.space.layout.page_size, region="stack",
                tag="sched-main-stack")
            self.machine_regs["sp"] = (self._main_stack.start
                                       + self._main_stack.length)
        # -- statistics ------------------------------------------------------
        self.context_switches = 0
        self.threads_finished = 0

    # ------------------------------------------------------------------
    # CthCreate / CthExit
    # ------------------------------------------------------------------

    def create(self, body: ThreadBody, name: str = "",
               privatize_globals: bool = False,
               priority: int = 0) -> UThread:
        """CthCreate: make a new ready thread running ``body``.

        ``priority`` matters under the "priority" policy: smaller numbers
        run first (stable among equals).
        """
        rec = self.stack_manager.create_stack()
        self._seq += 1
        thread = UThread((self.processor.id, self._seq), body, self, rec,
                         name=name)
        thread.priority = priority
        npages = rec.size // self.space.layout.page_size
        self.processor.charge(self.profile.uthread_create_ns
                              + self.profile.mem.allocation_cost(npages))
        if privatize_globals:
            if self.globals_registry is None:
                raise SchedulerError("no globals registry to privatize from")
            thread.got = GlobalOffsetTable.privatize(
                self.globals_registry, thread.malloc)
        if self.emulate_swap:
            # A fresh thread's stack carries a zeroed register image,
            # written through the manager wherever that stack lives (a
            # private home while another thread runs at its address).
            self._seed_inactive(thread, self._ctx_slot(thread.tid))
        thread.state = ThreadState.READY
        self._enqueue(thread)
        self.threads[thread.tid] = thread
        return thread

    def _enqueue(self, thread: UThread) -> None:
        """Queue a thread resumption per the scheduling policy.

        FIFO schedules every resumption at key 0.0 — the kernel's
        ``(time, seq)`` tie-break is insertion order, i.e. the circular
        run queue.  Priority uses the thread's priority as the key;
        smaller numbers run first, equal priorities stay FIFO.
        """
        key = 0.0 if self.policy == "fifo" else float(thread.priority)
        # post() (not schedule()): skipping the KernelEvent handle keeps
        # the context-switch path allocation-free; the raw slot is all
        # unqueue() needs.
        thread.queued = self.kernel.post(
            key, self._resume_fn, (thread,), "cth.resume",
            thread.name or f"tid{thread.tid}")

    def unqueue(self, thread: UThread) -> bool:
        """Cancel ``thread``'s pending resumption (O(1): the thread holds
        its slot).  Returns False when none was queued here."""
        slot, thread.queued = thread.queued, None
        return slot is not None and self.kernel.cancel_slot(slot)

    def _seed_inactive(self, thread: UThread, ctx: int) -> None:
        word = self.space.layout.word_bytes
        sp = thread.stack.top
        for _ in self.swap.saved:
            sp -= word
            self.stack_manager.stack_write(
                thread.stack, sp - thread.stack.base, b"\x00" * word)
        self.space.write(ctx, sp.to_bytes(word, "little"))
        thread.stack.extra_live = len(self.swap.saved) * word

    # ------------------------------------------------------------------
    # CthYield / CthSuspend / CthAwaken
    # ------------------------------------------------------------------

    def awaken(self, thread: UThread) -> None:
        """CthAwaken: put a suspended thread back on the run queue."""
        if thread.state is not ThreadState.SUSPENDED:
            raise ThreadError(
                f"CthAwaken on {thread.name} in state {thread.state.value}")
        thread.state = ThreadState.READY
        self._enqueue(thread)

    # ------------------------------------------------------------------
    # the trampoline
    # ------------------------------------------------------------------

    def run(self, max_switches: Optional[int] = None) -> int:
        """Run ready threads until the queue drains (or a switch budget).

        Returns the number of context switches performed by this call.
        """
        return self.kernel.run(max_events=max_switches)

    def step_one(self) -> bool:
        """Run exactly one ready thread to its next directive."""
        return self.run(max_switches=1) == 1

    @staticmethod
    def _resume(thread: UThread) -> None:
        """Kernel dispatch target for one queued thread resumption: the
        whole context switch — switch-in, one step of the body,
        switch-out, the directive — in one frame.

        A plain function of the thread, not a bound method: the
        scheduler is ``thread.scheduler`` (a queued slot always sits on
        its thread's scheduler — ``remove`` unqueues before ``adopt``
        re-homes), so no slot and no attribute of the scheduler points
        back at it.

        A thread that is no longer READY (it was popped through another
        path, suspended, or finished since this resumption was queued)
        makes the event void — it must not count against a switch budget.
        """
        self = thread.scheduler
        if thread.state is not ThreadState.READY:
            self.kernel.skip_current()
            return
        # The fired slot's args hold the thread: drop it, or every
        # thread sits in a reference cycle (and pins its last slot)
        # until the collector runs — +4 MB peak RSS on a Figure 11/12
        # repetition.
        thread.queued = None
        profile = self.profile
        cost = profile.uthread_switch_ns
        cost += self.stack_manager.switch_in(thread.stack)
        if thread.got is not None:
            nbytes = thread.got.swap_in()
            cost += profile.mem.memcpy_cost(nbytes)
        if self.emulate_swap:
            self.swap.execute(self.space, self.machine_regs,
                              self._ctx_slot("main"),
                              self._ctx_slot(thread.tid))
            # The register image has been popped back off the stack.
            thread.stack.extra_live = 0
            cost += self.swap.cost_ns(profile.cpu_ghz)
        thread.state = ThreadState.RUNNING
        thread.switches += 1
        self.current = thread
        self.context_switches += 1
        if cost != 0.0:
            self.processor.charge(cost)
        try:
            directive = thread.step()
        except BaseException:
            # The body raised: it is over all the same.  The exception
            # leaves with the thread still switched in.
            if self.on_exit is not None:
                self.on_exit(thread)
            raise
        cost = 0.0
        if self.emulate_swap:
            # The thread's stack pointer sits below whatever it alloca()'d;
            # the register image is pushed beneath the live stack data.
            self.machine_regs["sp"] = (thread.stack.top
                                       - thread.stack.used_bytes)
            self.swap.execute(self.space, self.machine_regs,
                              self._ctx_slot(thread.tid),
                              self._ctx_slot("main"))
            # A register image now sits below the thread's data; stack
            # copying must treat it as live.
            thread.stack.extra_live = (len(self.swap.saved)
                                       * self.space.layout.word_bytes)
            cost += self.swap.cost_ns(self.profile.cpu_ghz)
        cost += self.stack_manager.switch_out(thread.stack)
        self.current = None
        # Isomalloc threads switch out for free; charging 0.0 moves
        # neither busy_ns nor the clock.
        if cost != 0.0:
            self.processor.charge(cost)
        if directive == "suspend":
            # Every blocking receive ends here; the other directives
            # take the _handle ladder.
            thread.state = ThreadState.SUSPENDED
        else:
            self._handle(thread, directive)

    def _handle(self, thread: UThread, directive: Any) -> None:
        if directive == "yield":
            thread.state = ThreadState.READY
            self._enqueue(thread)
        elif directive == "exit":
            self._finish(thread)
        elif (isinstance(directive, tuple) and len(directive) == 2
                and directive[0] == "io"):
            self._handle_io(thread, float(directive[1]))
        else:
            raise SchedulerError(
                f"{thread.name} yielded unknown directive {directive!r}")

    def _finish(self, thread: UThread) -> None:
        thread.state = ThreadState.FINISHED
        self.threads.pop(thread.tid, None)
        self._release_ctx(thread.tid)
        self.stack_manager.destroy_stack(thread.stack)
        self.threads_finished += 1
        if self.on_exit is not None:
            self.on_exit(thread)
        # CthExit frees the thread's flow of control: the body and the
        # generator go (one an explicit "exit" left suspended is closed
        # as it goes), so no edge leads from the finished thread back
        # into the program that ran it.
        thread.body = thread._gen = None

    def _handle_io(self, thread: UThread, duration_ns: float) -> None:
        """A blocking call, e.g. disk or socket I/O (paper Section 2.3).

        Naive mode: "the kernel suspends the entire calling kernel thread
        or process, even though another user-level thread might be ready
        to run" — the whole processor stalls for the duration.

        Intercept mode: the runtime replaces the blocking call with a
        non-blocking one; this thread suspends, a completion timer is
        scheduled, and other user-level threads run in the meantime.
        """
        cluster = self.processor.cluster
        if self.io_mode == "naive" or cluster is None:
            self.processor.charge(duration_ns)
            thread.state = ThreadState.READY
            self._enqueue(thread)
            return
        if self.io_mode == "activations":
            # The kernel notifies the user-level scheduler that the thread
            # blocked (one upcall now) and that it unblocked (another at
            # completion) — overlap like interception, at syscall cost.
            self.processor.charge(self.profile.syscall_ns)
            self.upcalls += 1
        thread.state = ThreadState.SUSPENDED
        cluster.after(self.processor.id, duration_ns, self._io_complete,
                      thread)

    def _io_complete(self, thread: UThread) -> None:
        if self.io_mode == "activations":
            self.processor.charge(self.profile.syscall_ns)
            self.upcalls += 1
        if thread.state is ThreadState.SUSPENDED:
            self.awaken(thread)

    # ------------------------------------------------------------------
    # GOT coherence for direct global access outside the trampoline
    # ------------------------------------------------------------------

    def ensure_got(self, thread: UThread) -> None:
        """Make sure the canonical GOT shows ``thread``'s view of globals.

        Inside the trampoline the switch-in already did this; tests that
        poke globals from outside call through here.
        """
        if self.globals_registry is None:
            raise SchedulerError("scheduler has no globals registry")
        if thread.got is not None:
            thread.got.swap_in()

    # ------------------------------------------------------------------
    # context-slot management (swap emulation)
    # ------------------------------------------------------------------

    def _ctx_slot(self, key: Any) -> int:
        addr = self._ctx_slots.get(key)
        if addr is not None:
            return addr
        word = self.space.layout.word_bytes
        if self._ctx_mapping is None:
            self._ctx_mapping = self.space.mmap(
                self.space.layout.page_size, region="data", tag="cth-ctx")
            # Slot 0 belongs to the scheduler's own ("main") context.
        if self._ctx_next + word > self._ctx_mapping.length:
            raise SchedulerError("context-slot page exhausted "
                                 "(too many live threads with emulate_swap)")
        addr = self._ctx_mapping.start + self._ctx_next
        self._ctx_next += word
        self._ctx_slots[key] = addr
        if key == "main":
            # Main's saved sp is its own slot content; seed with a dummy
            # stack pointer pointing at a scratch word.
            self.space.write_word(addr, 0)
        return addr

    def _release_ctx(self, key: Any) -> None:
        self._ctx_slots.pop(key, None)

    # -- migration support -------------------------------------------------

    def saved_sp(self, thread: UThread) -> int:
        """Read a suspended thread's saved stack pointer (swap emulation)."""
        if not self.emulate_swap:
            return thread.stack.top
        return self.space.read_word(self._ctx_slot(thread.tid))

    def adopt(self, thread: UThread, saved_sp: int) -> None:
        """Attach a migrated-in thread to this scheduler's run queue."""
        thread.scheduler = self
        self._seq += 1  # keep local tid space moving; tid itself unchanged
        self.threads[thread.tid] = thread
        if self.emulate_swap:
            self.space.write_word(self._ctx_slot(thread.tid), saved_sp)
        if thread.got is not None and self.globals_registry is not None:
            thread.got.registry = self.globals_registry
        thread.state = ThreadState.READY
        self._enqueue(thread)

    def remove(self, thread: UThread) -> None:
        """Detach a thread from this scheduler (migrate-out)."""
        if self.current is thread:
            raise ThreadError("cannot remove the running thread")
        self.unqueue(thread)
        self.threads.pop(thread.tid, None)
        self._release_ctx(thread.tid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CthScheduler pe{self.processor.id} "
                f"{self.stack_manager.technique} ready={len(self.kernel)}>")
