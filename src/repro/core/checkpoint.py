"""Checkpoint/restart and proactive evacuation via migration.

Paper Section 3: "Migration techniques can also be used to implement
checkpoint/restart for fault tolerance — under this model, checkpointing is
simply migration to disk or the local memory of a remote processor", and
migration "can allow all the work to be moved off a processor ... to vacate
a node that is expected to fail or be shut down".

Both are implemented here on top of the thread migrator:

* :class:`Checkpointer` packs a thread's full migration image (stack,
  isomalloc heap, allocator metadata, GOT, saved registers) into **real
  bytes** (via :func:`repro.core.pup.pack_value`) on a simulated disk with
  a write-bandwidth cost model, and can rebuild the thread from those
  bytes on any processor.
* :meth:`Checkpointer.evacuate` drains every migratable thread off a
  processor (round-robin over the survivors) — proactive fault tolerance.

Emulation caveat (see DESIGN.md): the Python generator driving a thread's
body is process-local and cannot be serialized, so a restore is only valid
while the thread has not been scheduled since the checkpoint — the
generator must still *be* at the checkpointed state.  :meth:`restore`
enforces this.  Everything the paper says must persist (the simulated
memory image) genuinely round-trips through bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import (CheckpointError, MigrationAborted, MigrationError,
                          PupError)
from repro.core.migration import ThreadMigrator
from repro.core.pup import pack_value, pup_seal, pup_unseal, unpack_value
from repro.core.thread import ThreadState, UThread

__all__ = ["DiskModel", "CheckpointRecord", "Checkpointer"]


@dataclass(frozen=True)
class DiskModel:
    """Cost model for the simulated checkpoint device."""

    write_bytes_per_ns: float = 0.1       # ~100 MB/s (2006 local disk)
    read_bytes_per_ns: float = 0.15
    seek_ns: float = 8_000_000.0          # 8 ms seek + sync

    def write_ns(self, nbytes: int) -> float:
        """Time to persist ``nbytes``."""
        return self.seek_ns + nbytes / self.write_bytes_per_ns

    def read_ns(self, nbytes: int) -> float:
        """Time to load ``nbytes``."""
        return self.seek_ns + nbytes / self.read_bytes_per_ns


@dataclass
class CheckpointRecord:
    """One thread checkpoint: real bytes plus the process-local handles."""

    key: str
    blob: bytes
    tid: tuple
    name: str
    switches_at_checkpoint: int
    #: Process-local continuation handle (not serializable; DESIGN.md).
    thread_obj: UThread = field(repr=False, default=None)

    @property
    def nbytes(self) -> int:
        """Size of the serialized image on the simulated disk."""
        return len(self.blob)


class Checkpointer:
    """Checkpoint, restore, and evacuate migratable threads."""

    def __init__(self, migrator: ThreadMigrator,
                 disk: Optional[DiskModel] = None):
        self.migrator = migrator
        self.disk = disk or DiskModel()
        self._hooks = migrator.cluster.queue.hooks
        self._store: Dict[str, CheckpointRecord] = {}
        self.checkpoints_taken = 0
        self.restores_done = 0
        self.bytes_written = 0
        #: Threads :meth:`evacuate` had to leave in place because every
        #: migration attempt aborted.
        self.evacuations_skipped = 0

    # ------------------------------------------------------------------

    def checkpoint(self, thread: UThread, key: Optional[str] = None) -> str:
        """Persist a non-running thread's state to the simulated disk.

        Non-destructive: the thread keeps running afterwards.  Returns the
        checkpoint key.
        """
        if thread.state not in (ThreadState.READY, ThreadState.SUSPENDED):
            raise MigrationError(
                f"cannot checkpoint {thread.name} in state "
                f"{thread.state.value}")
        # The on-disk image is the migration image, sealed (length +
        # CRC32) so that corruption on the simulated disk is a loud
        # CheckpointError at restore, never a silently wrong memory image.
        blob = pup_seal(pack_value(self.migrator.pack(thread)))
        key = key or f"ckpt-{thread.name}-{self.checkpoints_taken}"
        # The kernel's "checkpoint.write" filter channel may replace the
        # blob (chaos: transient CheckpointError or a corrupted image that
        # the seal catches at restore).
        blob = self._hooks.filter("checkpoint.write", blob, key=key)
        self._store[key] = CheckpointRecord(
            key=key, blob=blob, tid=thread.tid, name=thread.name,
            switches_at_checkpoint=thread.switches, thread_obj=thread)
        thread.scheduler.processor.charge(self.disk.write_ns(len(blob)))
        self.checkpoints_taken += 1
        self.bytes_written += len(blob)
        return key

    def records(self) -> List[CheckpointRecord]:
        """All stored checkpoint records (for inspection/integrity audits)."""
        return list(self._store.values())

    def stored(self, key: str) -> CheckpointRecord:
        """Look up a checkpoint record."""
        try:
            return self._store[key]
        except KeyError:
            raise MigrationError(f"no checkpoint {key!r}") from None

    def restore(self, key: str, dst_pe: int) -> UThread:
        """Rebuild a checkpointed thread on processor ``dst_pe``.

        The original thread's resources are assumed lost (fail-stop): the
        image is deserialized from bytes, the stack/heap are rebuilt at
        their original virtual addresses, and the thread resumes suspended
        on the destination scheduler.

        Raises
        ------
        MigrationError
            If the thread was scheduled after the checkpoint (its
            generator has advanced past the saved memory image — the
            documented emulation limit), or if the destination cannot
            host the image.
        """
        record = self.stored(key)
        thread = record.thread_obj
        if thread.switches != record.switches_at_checkpoint:
            raise MigrationError(
                f"cannot restore {record.name}: thread ran "
                f"{thread.switches - record.switches_at_checkpoint} more "
                f"slices after the checkpoint (generator state is "
                f"process-local; see DESIGN.md)")
        try:
            image = unpack_value(pup_unseal(record.blob))
        except PupError as e:
            raise CheckpointError(
                f"checkpoint {key!r} failed its integrity check: {e}") from e
        self.migrator.schedulers[dst_pe].processor.charge(
            self.disk.read_ns(len(record.blob)))
        # Restores come back suspended; the caller decides when to resume.
        self.migrator.rebuild(thread, image, dst_pe, suspended=True)
        self.restores_done += 1
        return thread

    # ------------------------------------------------------------------

    def evacuate(self, pe: int,
                 targets: Optional[Sequence[int]] = None) -> int:
        """Migrate every thread off processor ``pe`` (proactive FT).

        Threads are spread round-robin over ``targets`` (default: every
        other live processor).  Returns the number of threads moved.  The
        caller then runs the cluster to complete delivery.

        A migration that aborts (fault injection, failed destination) is
        retried once on the next target; a thread whose retries all abort
        stays in place and is counted in :attr:`evacuations_skipped` — a
        partial evacuation is still an evacuation, never a lost thread.
        """
        scheds = self.migrator.schedulers
        if targets is None:
            targets = [p for p in range(len(scheds))
                       if p != pe and not self.migrator.cluster[p].failed]
        if not targets or pe in targets:
            raise MigrationError(f"bad evacuation targets {targets}")
        sched = scheds[pe]
        threads: List[UThread] = list(sched.threads.values())
        moved = 0
        for i, thread in enumerate(threads):
            if thread.state not in (ThreadState.READY, ThreadState.SUSPENDED):
                continue
            for attempt in range(2):
                dst = targets[(i + attempt) % len(targets)]
                try:
                    self.migrator.migrate(thread, dst)
                except MigrationAborted:
                    continue
                moved += 1
                break
            else:
                self.evacuations_skipped += 1
        return moved
