"""Thread migration across simulated processors (paper Sections 3.1, 3.4).

The migrator packs everything the paper says must move with a thread —
stack contents, isomalloc heap pages, allocator metadata, the private GOT
image, the saved register context — ships it as one message through the
cluster network (paying bandwidth for every byte of simulated state), and
reconstructs the thread on the destination processor *at the same virtual
addresses*, so every pointer stored in the thread's memory remains valid.

What does **not** cross the simulated wire is the Python generator object
driving the thread's body: the whole cluster lives in one host process, so
handing the generator to the destination scheduler is free.  That is the
"coarse emulation" substitution documented in DESIGN.md — everything the
paper's techniques exist to preserve (the simulated memory image and its
internal pointers) genuinely moves and is genuinely verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import MigrationAborted, MigrationError
from repro.core.scheduler import CthScheduler
from repro.core.thread import ThreadState, UThread
from repro.sim.cluster import Cluster
from repro.sim.dispatch import TagDispatcher
from repro.sim.network import Message

__all__ = ["ThreadImage", "ThreadMigrator"]

_TAG = "thmig"


@dataclass
class ThreadImage:
    """A packed thread in flight between processors."""

    fields: dict                   # ThreadMigrator.pack(thread)
    thread_obj: UThread            # in-process handle (see module docstring)
    wire_bytes: int                # simulated size actually shipped
    was_suspended: bool = False    # a suspended thread stays suspended
    bounced: bool = False          # refused once by its destination


class ThreadMigrator:
    """Packs, ships, and rebuilds user-level threads between processors.

    Parameters
    ----------
    cluster:
        The simulated machine.
    schedulers:
        One :class:`CthScheduler` per processor, indexed by processor id.
        All schedulers must use the *same* stack technique; isomalloc
        additionally requires all of them to share one arena (the startup
        agreement).
    """

    def __init__(self, cluster: Cluster, schedulers: List[CthScheduler]):
        if len(schedulers) != len(cluster):
            raise MigrationError(
                f"{len(schedulers)} schedulers for {len(cluster)} processors")
        techniques = {s.stack_manager.technique for s in schedulers}
        if len(techniques) != 1:
            raise MigrationError(
                f"mixed stack techniques across processors: {techniques}")
        self.cluster = cluster
        self.schedulers = schedulers
        #: What every migration reads and a run never changes.
        self._processors = cluster.processors
        self._hooks = cluster.queue.hooks
        #: Called with each thread after it is rebuilt on its new processor.
        self.on_arrival: Optional[Callable[[UThread], None]] = None
        self.migrations_started = 0
        self.migrations_completed = 0
        #: Migrations refused before any state moved (MigrationAborted).
        self.migrations_aborted = 0
        #: In-flight images the destination refused; the image bounced
        #: back and the thread was rebuilt on its source processor.
        self.migrations_bounced = 0
        #: Bounced images rebuilt at home.  A returned thread did *not*
        #: migrate — it is back where it started — so these rebuilds are
        #: counted here and never in :attr:`migrations_completed` (nor on
        #: ``thread.migrations``).  At quiescence this equals
        #: :attr:`migrations_bounced`.
        self.migrations_returned = 0
        self.bytes_shipped = 0
        for proc in cluster.processors:
            TagDispatcher.of(proc).register(_TAG, self._on_message)

    # -- the one image path: migrate ships it, a checkpoint writes it --

    def pack(self, thread: UThread) -> dict:
        """Everything that must move with ``thread``, as a value tree.
        ``Checkpointer`` serializes exactly this, and blob length is
        simulated disk time: keys and their order are a format."""
        sched = thread.scheduler
        got = thread.got
        return {
            "tid": tuple(thread.tid),
            "name": thread.name,
            "stack": sched.stack_manager.pack(thread.stack),
            "saved_sp": sched.saved_sp(thread),
            "got_image": list(got.image) if got else None,
            "got_storage": list(got.storage_addrs) if got else None,
        }

    def depart(self, thread: UThread) -> None:
        """Detach ``thread`` from its processor and free its stack."""
        sched = thread.scheduler
        sched.remove(thread)
        sched.stack_manager.evacuate(thread.stack)

    def rebuild(self, thread: UThread, image: dict, dst_pe: int,
                suspended: bool) -> None:
        """Inverse of :meth:`pack` on ``dst_pe``, same virtual addresses;
        the thread ends READY, or SUSPENDED if that is how it left."""
        dst_sched = self.schedulers[dst_pe]
        try:
            thread.stack = dst_sched.stack_manager.unpack(image["stack"])
        except Exception as e:
            raise MigrationError(
                f"failed to rebuild {image['name']} on pe{dst_pe}: {e}"
            ) from e
        if image["got_image"] is not None and thread.got is not None:
            thread.got.image = image["got_image"]
            thread.got.storage_addrs = image["got_storage"] or []
        dst_sched.adopt(thread, image["saved_sp"])
        if suspended:
            # adopt() optimistically queued it, so take it back out.
            dst_sched.unqueue(thread)
            thread.state = ThreadState.SUSPENDED

    # ------------------------------------------------------------------

    def migrate(self, thread: UThread, dst_pe: int) -> None:
        """Migrate a non-running thread to processor ``dst_pe``.

        The thread must be READY or SUSPENDED — a thread migrates at a
        scheduling point, never mid-instruction (same constraint as the
        real runtime, where migration happens from the scheduler).
        """
        src_sched = thread.scheduler
        src_proc = src_sched.processor
        src_pe = src_proc.id
        if not 0 <= dst_pe < len(self.schedulers):
            raise MigrationError(f"bad destination processor {dst_pe}")
        if thread.state not in (ThreadState.READY, ThreadState.SUSPENDED):
            raise MigrationError(
                f"cannot migrate {thread.name} in state {thread.state.value}")
        if dst_pe == src_pe:
            return  # no-op, like the real runtime
        # Either end failed: refused before any state moves (a thread
        # departed from a failed source would be lost in flight).
        if src_proc.failed or self._processors[dst_pe].failed:
            self.migrations_aborted += 1
            raise MigrationAborted(
                f"cannot migrate {thread.name}: processor "
                f"{src_pe if src_proc.failed else dst_pe} has failed")
        # The kernel's "migration.start" decision channel is the sanctioned
        # interception point: a subscriber (the chaos injector) returning a
        # truthy verdict vetoes the migration before any state moves.
        if self._hooks.decide("migration.start", thread=thread,
                              src_pe=src_pe, dst_pe=dst_pe):
            self.migrations_aborted += 1
            raise MigrationAborted(
                f"migration of {thread.name} pe{src_pe}->pe{dst_pe} "
                f"aborted by fault injection")

        fields = self.pack(thread)
        image = ThreadImage(
            fields=fields,
            thread_obj=thread,
            wire_bytes=src_sched.stack_manager.image_bytes(fields["stack"]),
            was_suspended=thread.state is ThreadState.SUSPENDED,
        )
        self.depart(thread)
        thread.state = ThreadState.MIGRATING
        # Packing pays a memory copy of the shipped bytes.
        src_proc.charge(src_sched.profile.mem.memcpy_cost(image.wire_bytes))
        self.cluster.send(src_pe, dst_pe, image,
                          size_bytes=image.wire_bytes, tag=_TAG)
        self.migrations_started += 1
        self.bytes_shipped += image.wire_bytes

    # ------------------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        image: ThreadImage = msg.payload
        # An already-bounced image is never offered to the
        # "migration.delivery" channel again (one bounce per migration).
        hooks = self._hooks
        if (not image.bounced
                and hooks.decide("migration.delivery", image=image,
                                 msg=msg) == "bounce"):
            # Mid-flight abort: the destination refuses the image (crash
            # during migration).  Nothing was unpacked there, so the full
            # image simply ships back and the thread is rebuilt at home —
            # the abort-and-retry protocol's in-flight half.
            image.bounced = True
            self.migrations_bounced += 1
            self.cluster.send(msg.dst, msg.src, image,
                              size_bytes=image.wire_bytes, tag=_TAG)
            return
        dst_sched = self.schedulers[msg.dst]
        thread = image.thread_obj
        # Unpacking pays the mirror-image memory copy.
        dst_sched.processor.charge(
            dst_sched.profile.mem.memcpy_cost(image.wire_bytes))
        self.rebuild(thread, image.fields, msg.dst,
                     suspended=image.was_suspended)
        if image.bounced:
            # A bounce-home rebuild is not a completed migration: the
            # thread is back on its source processor, having moved
            # nowhere.  Counting it as completed (and bumping
            # thread.migrations) once fed phantom successful moves into
            # the LB statistics.
            self.migrations_returned += 1
        else:
            thread.migrations += 1
            self.migrations_completed += 1
        if hooks.has("migration.done"):
            # Observability channel (filter-style, payload passes
            # through): one event per rebuild, completed or returned.
            hooks.filter("migration.done", {
                "name": image.fields["name"], "src": msg.src,
                "dst": msg.dst,
                "t": msg.send_time, "bytes": image.wire_bytes,
                "returned": image.bounced})
        if self.on_arrival is not None:
            self.on_arrival(thread)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ThreadMigrator {self.migrations_completed}/"
                f"{self.migrations_started} migrations, "
                f"{self.bytes_shipped}B shipped>")
