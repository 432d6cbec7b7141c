"""Tests for checkpoint/restart and processor evacuation."""

import ast
import pathlib

import pytest

import repro
from repro.core import Checkpointer, DiskModel
from repro.core.pup import pack_value, pup_seal
from repro.core.thread import ThreadState
from repro.errors import CheckpointError, MigrationError
from tests.core.conftest import make_cluster


def make_world(**kw):
    cl, scheds, mig, arena = make_cluster(2, emulate_swap=True, **kw)
    return cl, scheds, mig, Checkpointer(mig)


def test_checkpoint_produces_real_bytes():
    cl, scheds, mig, ck = make_world()

    def body(th):
        a = th.malloc(256)
        th.write(a, b"persist-me" * 10)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    key = ck.checkpoint(t)
    rec = ck.stored(key)
    assert isinstance(rec.blob, bytes)
    assert rec.nbytes > 256                    # at least the heap contents
    assert b"persist-me" in rec.blob           # the data really serialized
    assert ck.bytes_written == rec.nbytes


def test_checkpoint_blob_is_the_sealed_migration_image():
    """Checkpointing is migration to disk: one image, whose keys and
    order are an on-disk format (blob length is simulated disk time)."""
    cl, scheds, mig, ck = make_world()

    def body(th):
        th.write(th.malloc(64), b"x" * 64)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    image = mig.pack(t)
    assert list(image) == ["tid", "name", "stack", "saved_sp",
                           "got_image", "got_storage"]
    assert ck.stored(ck.checkpoint(t)).blob == pup_seal(pack_value(image))


def test_one_pack_one_rebuild_one_depart():
    """Only ``ThreadMigrator`` packs, unpacks or evacuates through a
    scheduler's stack manager, or adopts a thread; the checkpointer and
    the chaos fail-stop call it."""
    def is_image_step(f):
        return isinstance(f, ast.Attribute) and (
            f.attr == "adopt"
            or f.attr in ("pack", "unpack", "evacuate")
            and isinstance(f.value, ast.Attribute)
            and f.value.attr == "stack_manager")

    users = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        if path.name == "stacks.py":        # IsomallocSlot.adopt: a slot
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and is_image_step(n.func)
                    for n in ast.walk(fn)):
                users.add((path.name, fn.name))
    assert users == {("migration.py", "pack"), ("migration.py", "depart"),
                     ("migration.py", "rebuild")}


def test_checkpoint_restore_roundtrip():
    """Checkpoint to 'disk', destroy local state, restore elsewhere."""
    cl, scheds, mig, ck = make_world()
    out = []

    def body(th):
        cell = th.malloc(8)
        th.write_word(cell, 31337)
        stack_cell = th.alloca(8)
        th.write_word(stack_cell, cell)
        yield "suspend"
        out.append(th.read_word(th.read_word(stack_cell)))

    t = scheds[0].create(body)
    scheds[0].run()
    key = ck.checkpoint(t)
    # Fail-stop: processor 0 loses the thread's local resources.
    mig.depart(t)
    # Restore on processor 1 and resume.
    restored = ck.restore(key, dst_pe=1)
    assert restored is t
    assert t.state is ThreadState.SUSPENDED
    scheds[1].awaken(t)
    scheds[1].run()
    assert out == [31337]


def test_checkpoint_charges_disk_time():
    cl, scheds, mig, ck = make_world()

    def body(th):
        th.malloc(32 * 1024)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    before = cl[0].now
    ck.checkpoint(t)
    # At least the seek plus the transfer at modeled disk bandwidth.
    assert cl[0].now - before >= DiskModel().write_ns(32 * 1024)


def test_restore_after_progress_rejected():
    """The documented emulation limit: a thread that ran after the
    checkpoint cannot be rolled back (its generator advanced)."""
    cl, scheds, mig, ck = make_world()

    def body(th):
        yield "yield"
        yield "yield"
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run(max_switches=1)
    key = ck.checkpoint(t)
    scheds[0].run(max_switches=1)           # thread advances past the ckpt
    with pytest.raises(MigrationError, match="after the checkpoint"):
        ck.restore(key, dst_pe=1)


def test_checkpoint_running_thread_rejected():
    cl, scheds, mig, ck = make_world()
    boom = []

    def body(th):
        try:
            ck.checkpoint(th)
        except MigrationError as e:
            boom.append(str(e))
        yield "yield"

    scheds[0].create(body)
    scheds[0].run()
    assert boom and "running" in boom[0]


def test_unknown_checkpoint_key():
    cl, scheds, mig, ck = make_world()
    with pytest.raises(MigrationError):
        ck.restore("nope", 0)
    with pytest.raises(MigrationError):
        ck.stored("nope")


def test_evacuation_moves_all_threads():
    """Proactive fault tolerance: vacate a node expected to fail."""
    cl, scheds, mig, arena = make_cluster(3)
    ck = Checkpointer(mig)
    done = []

    def body(th, i):
        yield "suspend"
        done.append((i, th.scheduler.processor.id))

    threads = [scheds[0].create(lambda th, i=i: body(th, i))
               for i in range(6)]
    scheds[0].run()
    moved = ck.evacuate(0)
    assert moved == 6
    cl.run()
    # Processor 0 is empty; survivors host everything.
    assert not scheds[0].threads
    assert cl[0].space.resident_bytes == 0
    for t in threads:
        t.scheduler.awaken(t)
    for s in scheds[1:]:
        s.run()
    assert sorted(i for i, _ in done) == list(range(6))
    assert all(pe in (1, 2) for _, pe in done)


def test_evacuation_bad_targets():
    cl, scheds, mig, arena = make_cluster(2)
    ck = Checkpointer(mig)
    with pytest.raises(MigrationError):
        ck.evacuate(0, targets=[0])
    with pytest.raises(MigrationError):
        ck.evacuate(0, targets=[])


def test_private_globals_survive_checkpoint_restore():
    cl, scheds, mig, ck = make_world(globals_decl=[("counter", 8)])
    out = []

    def body(th):
        th.global_write_int("counter", 777)
        yield "suspend"
        out.append(th.global_read_int("counter"))

    t = scheds[0].create(body, privatize_globals=True)
    scheds[0].run()
    key = ck.checkpoint(t)
    scheds[0].remove(t)
    scheds[0].stack_manager.evacuate(t.stack)
    ck.restore(key, dst_pe=1)
    scheds[1].awaken(t)
    scheds[1].run()
    assert out == [777]


def _yielder(th):
    for _ in range(4):
        yield "yield"
    yield "suspend"


def test_a_thread_that_ran_keeps_one_image():
    """A new image retires the ones ``restore`` would refuse: the thread
    ran between them, so only the new one can come back."""
    cl, scheds, mig, ck = make_world()
    t = scheds[0].create(_yielder)
    scheds[0].run(max_switches=1)
    old = ck.checkpoint(t)
    old_bytes = ck.stored(old).nbytes
    scheds[0].run(max_switches=1)
    new = ck.checkpoint(t)
    assert [r.key for r in ck.records()] == [new]
    with pytest.raises(MigrationError, match="no checkpoint"):
        ck.stored(old)
    # The counters still count writes, retired images included.
    assert ck.checkpoints_taken == 2
    assert ck.bytes_written == old_bytes + ck.stored(new).nbytes
    mig.depart(t)
    assert ck.restore(new, dst_pe=1) is t


def test_two_threads_keep_two_images():
    cl, scheds, mig, ck = make_world()
    a, b = scheds[0].create(_yielder), scheds[0].create(_yielder)
    for _ in range(2):
        scheds[0].run(max_switches=2)
        keys = [ck.checkpoint(a), ck.checkpoint(b)]
    assert sorted(r.key for r in ck.records()) == sorted(keys)
    assert {r.tid for r in ck.records()} == {a.tid, b.tid}


def test_images_with_no_slice_between_them_all_stay_restorable():
    cl, scheds, mig, ck = make_world()
    t = scheds[0].create(_yielder)
    scheds[0].run(max_switches=1)
    first, second = ck.checkpoint(t), ck.checkpoint(t)
    assert [r.key for r in ck.records()] == [first, second]
    mig.depart(t)
    ck.restore(first, dst_pe=1)
    mig.depart(t)
    ck.restore(second, dst_pe=0)
    scheds[0].awaken(t)
    scheds[0].run(max_switches=1)
    third = ck.checkpoint(t)
    assert [r.key for r in ck.records()] == [third]


def test_a_refused_write_retires_nothing():
    cl, scheds, mig, ck = make_world()
    t = scheds[0].create(_yielder)
    scheds[0].run(max_switches=1)
    key = ck.checkpoint(t)
    scheds[0].run(max_switches=1)

    def refuse(blob, key):
        raise CheckpointError(f"disk full writing {key!r}")

    cl.queue.hooks.subscribe("checkpoint.write", refuse)
    with pytest.raises(CheckpointError):
        ck.checkpoint(t)
    assert [r.key for r in ck.records()] == [key]


def test_retiring_spares_a_key_another_thread_rewrote():
    cl, scheds, mig, ck = make_world()
    a, b = scheds[0].create(_yielder), scheds[0].create(_yielder)
    scheds[0].run(max_switches=2)
    ck.checkpoint(a, key="shared")
    ck.checkpoint(b, key="shared")          # b's image now holds the key
    scheds[0].run(max_switches=2)
    ck.checkpoint(a, key="a-next")
    assert ck.stored("shared").thread_obj is b
    assert sorted(r.key for r in ck.records()) == ["a-next", "shared"]
