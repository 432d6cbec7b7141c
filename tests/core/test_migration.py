"""Tests for thread migration across simulated processors."""

import pytest

from repro.core.pup import pack_value
from repro.core.thread import ThreadState
from repro.errors import MigrationAborted, MigrationError
from tests.core.conftest import make_cluster


TECHNIQUES = ["isomalloc", "stack_copy", "memory_alias"]


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_basic_migration_all_techniques(technique):
    cl, scheds, mig, _ = make_cluster(2, technique=technique,
                                      emulate_swap=True)
    log = []

    def body(th):
        log.append(("start", th.scheduler.processor.id))
        yield "suspend"
        log.append(("resumed", th.scheduler.processor.id))

    t = scheds[0].create(body)
    scheds[0].run()
    mig.migrate(t, 1)
    assert t.state is ThreadState.MIGRATING
    cl.run()
    assert t.state is ThreadState.SUSPENDED
    scheds[1].awaken(t)
    scheds[1].run()
    assert log == [("start", 0), ("resumed", 1)]
    assert t.migrations == 1


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_register_image_size_survives_migration(technique):
    """A suspended thread's pushed register image is live stack data:
    its size (``extra_live``) must arrive with the stack."""
    cl, scheds, mig, _ = make_cluster(2, technique=technique,
                                      emulate_swap=True)

    def body(th):
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    pushed = t.stack.extra_live
    assert pushed == (len(scheds[0].swap.saved)
                      * cl[0].space.layout.word_bytes)
    mig.migrate(t, 1)
    cl.run()
    assert t.stack.extra_live == pushed


def test_heap_pointers_survive_migration():
    """The isomalloc guarantee: a linked structure built on PE0 is walkable
    on PE1 with no pointer rewriting."""
    cl, scheds, mig, _ = make_cluster(2, emulate_swap=True)
    out = []

    def body(th):
        # Build a 5-node linked list in migratable heap.
        head = 0
        for v in range(5, 0, -1):
            node = th.malloc(16)
            th.write_word(node, v)          # value
            th.write_word(node + 8, head)   # next pointer
            head = node
        stack_cell = th.alloca(8)
        th.write_word(stack_cell, head)     # stack -> heap pointer
        yield "suspend"
        # Traverse after migration.
        cursor = th.read_word(stack_cell)
        while cursor:
            out.append(th.read_word(cursor))
            cursor = th.read_word(cursor + 8)

    t = scheds[0].create(body)
    scheds[0].run()
    mig.migrate(t, 1)
    cl.run()
    scheds[1].awaken(t)
    scheds[1].run()
    assert out == [1, 2, 3, 4, 5]


def test_migration_ships_simulated_bytes():
    cl, scheds, mig, _ = make_cluster(2)

    def body(th):
        a = th.malloc(4096)
        th.write(a, b"z" * 4096)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    sent_before = cl[0].bytes_sent
    mig.migrate(t, 1)
    cl.run()
    shipped = cl[0].bytes_sent - sent_before
    # At least the stack plus the heap page must have crossed the wire.
    assert shipped >= 4096 + t.stack.size
    assert mig.bytes_shipped == shipped


def test_migrate_ready_thread():
    cl, scheds, mig, _ = make_cluster(2)
    log = []

    def body(th):
        yield "yield"
        log.append(th.scheduler.processor.id)

    t = scheds[0].create(body)
    # Never run: migrate while READY.
    mig.migrate(t, 1)
    cl.run()
    scheds[1].run()
    assert log == [1]


def test_migrate_running_thread_rejected():
    cl, scheds, mig, _ = make_cluster(2)
    boom = []

    def body(th):
        try:
            mig.migrate(th, 1)
        except MigrationError as e:
            boom.append(str(e))
        yield "yield"

    scheds[0].create(body)
    scheds[0].run()
    assert boom and "running" in boom[0]


def test_migrate_to_same_pe_is_noop():
    cl, scheds, mig, _ = make_cluster(2)
    t = scheds[0].create(lambda th: iter(()))
    mig.migrate(t, 0)
    assert mig.migrations_started == 0
    assert t.state is ThreadState.READY


def test_migrate_bad_destination():
    cl, scheds, mig, _ = make_cluster(2)
    t = scheds[0].create(lambda th: iter(()))
    with pytest.raises(MigrationError):
        mig.migrate(t, 7)


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("down", [0, 1])
def test_migration_with_a_failed_end_is_refused_before_any_state_moves(
        technique, down):
    """Off a failed source as onto a failed destination: the thread stays
    where it is, queued, its stack in place, and the abort is counted."""
    cl, scheds, mig, _ = make_cluster(2, technique=technique)
    t = scheds[0].create(lambda th: iter(()))
    image = pack_value(mig.pack(t))
    cl[down].failed = True
    with pytest.raises(MigrationAborted, match=f"processor {down} has failed"):
        mig.migrate(t, 1)
    assert (mig.migrations_aborted, mig.migrations_started) == (1, 0)
    assert t.state is ThreadState.READY and scheds[0].threads[t.tid] is t
    assert pack_value(mig.pack(t)) == image
    cl[down].failed = False
    scheds[0].run()
    assert t.state is ThreadState.FINISHED


def test_multi_hop_migration():
    """A thread can migrate repeatedly (PE0 -> PE1 -> PE0) with state intact."""
    cl, scheds, mig, _ = make_cluster(2, emulate_swap=True)
    trail = []

    def body(th):
        cell = th.malloc(8)
        th.write_word(cell, 1)
        yield "suspend"
        trail.append((th.scheduler.processor.id, th.read_word(cell)))
        th.write_word(cell, 2)
        yield "suspend"
        trail.append((th.scheduler.processor.id, th.read_word(cell)))

    t = scheds[0].create(body)
    scheds[0].run()
    mig.migrate(t, 1)
    cl.run()
    scheds[1].awaken(t)
    scheds[1].run()
    mig.migrate(t, 0)
    cl.run()
    scheds[0].awaken(t)
    scheds[0].run()
    assert trail == [(1, 1), (0, 2)]
    assert t.migrations == 2


def test_private_globals_survive_migration():
    cl, scheds, mig, _ = make_cluster(2, globals_decl=[("counter", 8)])
    out = []

    def body(th):
        th.global_write_int("counter", 321)
        yield "suspend"
        out.append(th.global_read_int("counter"))

    t = scheds[0].create(body, privatize_globals=True)
    scheds[0].run()
    mig.migrate(t, 1)
    cl.run()
    scheds[1].awaken(t)
    scheds[1].run()
    assert out == [321]


def test_migration_charges_both_processors():
    cl, scheds, mig, _ = make_cluster(2)

    def body(th):
        th.malloc(8 * 1024)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    t0, t1 = cl[0].now, cl[1].now
    mig.migrate(t, 1)
    cl.run()
    assert cl[0].now > t0      # pack + send overhead
    assert cl[1].now > t1      # receive + unpack


def test_on_arrival_hook():
    cl, scheds, mig, _ = make_cluster(2)
    arrivals = []
    mig.on_arrival = lambda th: arrivals.append(th.name)
    t = scheds[0].create(lambda th: iter(()), name="hooked")
    mig.migrate(t, 1)
    cl.run()
    assert arrivals == ["hooked"]


def test_mixed_technique_clusters_rejected():
    from repro.core import (CthScheduler, IsomallocArena, IsomallocStacks,
                            MemoryAliasStacks, ThreadMigrator)
    from repro.sim import Cluster

    cl = Cluster(2)
    arena = IsomallocArena(cl.platform.layout(), 2)
    s0 = CthScheduler(cl[0], IsomallocStacks(cl[0].space, cl.platform,
                                             arena, 0, stack_bytes=8192))
    s1 = CthScheduler(cl[1], MemoryAliasStacks(cl[1].space, cl.platform,
                                               stack_bytes=8192))
    with pytest.raises(MigrationError):
        ThreadMigrator(cl, [s0, s1])


def test_source_releases_memory_after_migration():
    cl, scheds, mig, _ = make_cluster(2)

    def body(th):
        th.malloc(16 * 1024)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    resident_with_thread = cl[0].space.resident_bytes
    mig.migrate(t, 1)
    cl.run()
    assert cl[0].space.resident_bytes < resident_with_thread
    # Destination now holds the thread's pages.
    assert cl[1].space.resident_bytes >= 16 * 1024
