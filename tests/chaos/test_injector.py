"""Tests for the fault injector's hooks into cluster/migrator/checkpointer."""

import pytest

from repro.chaos import (STANDARD_RATES, BTMZChaosWorkload, ChaosRunner,
                         FaultConfig, FaultEvent, FaultInjector,
                         FaultSchedule)
from repro.core import Checkpointer
from repro.core.thread import ThreadState
from repro.errors import CheckpointError, MigrationAborted
from repro.sim import Cluster
from tests.core.conftest import make_cluster


def message_cluster(n=2):
    """A raw cluster whose processors log every delivered payload."""
    cl = Cluster(n)
    log = []
    for proc in cl.processors:
        proc.set_message_handler(lambda msg, log=log: log.append(msg.payload))
    return cl, log


def scripted_injector(cl, *events):
    return FaultInjector(FaultSchedule.scripted(list(events))).attach(cl)


# -- message faults ---------------------------------------------------------

def test_drop_loses_exactly_the_scripted_message():
    cl, log = message_cluster()
    injector = scripted_injector(cl, FaultEvent("send", 0, "drop"))
    cl.send(0, 1, "first", 100, tag="ampi")
    cl.send(0, 1, "second", 100, tag="ampi")
    cl.run()
    assert log == ["second"]
    assert injector.counters["sends_seen"] == 2
    assert injector.counters["dropped"] == 1
    assert injector.arrivals_scheduled == 1


def test_delay_defers_delivery_past_later_traffic():
    cl, log = message_cluster()
    scripted_injector(cl, FaultEvent("send", 0, "delay", 1_000_000.0))
    cl.send(0, 1, "slowed", 100, tag="ampi")
    cl.send(0, 1, "normal", 100, tag="ampi")
    cl.run()
    assert log == ["normal", "slowed"]


def test_dup_delivers_the_message_twice():
    cl, log = message_cluster()
    injector = scripted_injector(cl, FaultEvent("send", 0, "dup", 5_000.0))
    cl.send(0, 1, "once?", 100, tag="ampi")
    cl.run()
    assert log == ["once?", "once?"]
    assert injector.counters["duplicated"] == 1
    assert injector.arrivals_scheduled == 2


def test_reorder_jumps_ahead_of_earlier_traffic():
    cl, log = message_cluster()
    injector = scripted_injector(cl, FaultEvent("send", 1, "reorder"))
    cl.send(0, 1, "big-and-slow", 1_000_000, tag="ampi")   # long wire time
    cl.send(0, 1, "queue-jumper", 100, tag="ampi")          # reordered early
    cl.run()
    assert log == ["queue-jumper", "big-and-slow"]
    assert injector.counters["reordered"] == 1


def test_unfaultable_tags_pass_untouched():
    cl, log = message_cluster()
    injector = scripted_injector(cl, FaultEvent("send", 0, "drop"))
    cl.send(0, 1, "control-plane", 100, tag="other")
    cl.run()
    assert log == ["control-plane"]
    # Not a faultable send: no decision point was consumed for it.
    assert injector.counters["sends_seen"] == 0
    assert injector.schedule._seq["send"] == 0


def test_each_channel_visit_is_one_decide_in_dispatch_order():
    """``attach`` subscribes the ``on_*`` methods themselves: publishing
    on the cluster's bus with each channel's own signature consults the
    schedule once per visit (once per arrival on ``net.send``)."""
    cl, _ = message_cluster()
    schedule = FaultSchedule.scripted([])
    visits = []
    decide = schedule.decide
    schedule.decide = lambda site: visits.append(site) or decide(site)
    injector = FaultInjector(schedule).attach(cl)
    bus = cl.queue.hooks
    msg = cl.send(0, 1, "x", 10, tag="ampi")           # the cluster publishes
    assert visits == ["send"]
    assert bus.filter("net.send", [1.0, 2.0], msg=msg) == [1.0, 2.0]
    assert bus.decide("migration.start", thread=None,
                      src_pe=0, dst_pe=1) is None
    assert bus.decide("migration.delivery", image=None, msg=msg) is None
    assert bus.filter("checkpoint.write", b"blob", key="k") == b"blob"
    assert bus.decide("checkpoint.barrier", runtime=None) is None
    assert visits == ["send", "send", "send", "migrate", "mig_delivery",
                      "ckpt", "barrier"]
    assert injector.counters["sends_seen"] == 3
    assert injector.arrivals_scheduled == 3
    injector.detach()
    assert not any(bus.has(channel) for channel in (
        "net.send", "migration.start", "migration.delivery",
        "checkpoint.write", "checkpoint.barrier"))


# -- migration faults -------------------------------------------------------

def body(th):
    yield "suspend"


def test_abort_vetoes_migration_before_any_state_moves():
    cl, scheds, mig, _ = make_cluster(2)
    injector = scripted_injector(cl, FaultEvent("migrate", 0, "abort"))
    t = scheds[0].create(body)
    scheds[0].run()
    with pytest.raises(MigrationAborted):
        mig.migrate(t, 1)
    assert t.scheduler is scheds[0]
    assert t.state is ThreadState.SUSPENDED
    assert injector.counters["migrations_vetoed"] == 1
    assert mig.migrations_aborted == 1
    # The veto happened before any state moved: a retry succeeds.
    mig.migrate(t, 1)
    cl.run()
    assert t.scheduler is scheds[1]


def test_bounce_ships_the_image_home_intact():
    cl, scheds, mig, _ = make_cluster(2)
    injector = scripted_injector(cl, FaultEvent("mig_delivery", 0, "bounce"))
    t = scheds[0].create(body)
    scheds[0].run()
    mig.migrate(t, 1)
    cl.run()
    # The destination refused mid-flight; the thread is back home, usable.
    assert t.scheduler is scheds[0]
    assert t.state is ThreadState.SUSPENDED
    assert injector.counters["migrations_bounced"] == 1
    assert mig.migrations_bounced == 1
    scheds[0].awaken(t)
    scheds[0].run()
    assert t.state is ThreadState.FINISHED


def test_thread_images_are_never_dropped():
    """Message faults only touch faultable tags; a drop scripted at the
    first send must not eat a migration image."""
    cl, scheds, mig, _ = make_cluster(2)
    scripted_injector(cl, FaultEvent("send", 0, "drop"))
    t = scheds[0].create(body)
    scheds[0].run()
    mig.migrate(t, 1)
    cl.run()
    assert t.scheduler is scheds[1]
    assert t.state is ThreadState.SUSPENDED


# -- checkpoint faults ------------------------------------------------------

def checkpointed_thread():
    cl, scheds, mig, _ = make_cluster(2)
    ck = Checkpointer(mig)
    t = scheds[0].create(body)
    scheds[0].run()
    return cl, ck, t


def test_io_error_raises_at_write_time():
    cl, ck, t = checkpointed_thread()
    injector = scripted_injector(cl, FaultEvent("ckpt", 0, "io_error"))
    with pytest.raises(CheckpointError):
        ck.checkpoint(t, key="k")
    assert injector.counters["ckpt_io_errors"] == 1
    # Transient: the next attempt goes through and restores cleanly.
    ck.checkpoint(t, key="k")
    assert ck.restore("k", 1) is t


def test_corrupt_write_fails_loudly_at_restore():
    cl, ck, t = checkpointed_thread()
    injector = scripted_injector(cl, FaultEvent("ckpt", 0, "corrupt", 0.5))
    ck.checkpoint(t, key="k")          # the write itself "succeeds"
    assert injector.counters["ckpt_corrupted"] == 1
    assert "k" in injector.corrupted_keys
    with pytest.raises(CheckpointError):
        ck.restore("k", 1)             # the seal catches the flipped byte


# -- barrier faults ---------------------------------------------------------

def test_a_barrier_fault_with_one_live_processor_is_recorded_not_applied():
    """btmz seed 32 draws two crashes.  The first leaves one live
    processor, so the second stays in the schedule — a replay must reach
    the same decision — but is not applied and moves no counter."""
    runner = ChaosRunner(BTMZChaosWorkload(), FaultConfig(**STANDARD_RATES))
    result = runner.run_seed(32)
    assert [ev.kind for ev in result.schedule].count("crash") == 2
    assert result.counters["crashes"] == 1
    assert result.outcome == "pass"
    assert runner.replay(result.schedule).fingerprint() \
        == result.fingerprint()


def test_summary_lists_nonzero_counters():
    cl, log = message_cluster()
    injector = scripted_injector(cl, FaultEvent("send", 0, "drop"))
    assert injector.summary() == "no faults"
    cl.send(0, 1, "x", 10, tag="ampi")
    cl.run()
    assert "dropped=1" in injector.summary()
