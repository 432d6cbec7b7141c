"""Unit tests for the event kernel: ordering, cancellation, policies, hooks."""

import pytest

from repro.errors import ReproError
from repro.kernel import EventKernel, HookBus, MinHeap, RunPolicy


# -- ordering ---------------------------------------------------------------

def test_time_order_with_fifo_ties():
    k = EventKernel()
    fired = []
    k.schedule(5.0, fired.append, "b1")
    k.schedule(2.0, fired.append, "a")
    k.schedule(5.0, fired.append, "b2")
    k.schedule(5.0, fired.append, "b3")
    k.schedule(9.0, fired.append, "c")
    assert k.run() == 5
    assert fired == ["a", "b1", "b2", "b3", "c"]
    assert k.current_time == 9.0


def test_len_and_empty_are_live_counts():
    k = EventKernel()
    assert k.empty and len(k) == 0
    evs = [k.schedule(float(i), lambda: None) for i in range(10)]
    assert len(k) == 10 and k.live == 10 and not k.empty
    evs[3].cancel()
    evs[7].cancel()
    assert len(k) == 8
    evs[3].cancel()          # double-cancel is a no-op
    assert len(k) == 8
    k.run()
    assert k.empty and len(k) == 0
    assert k.events_processed == 8


def test_live_events_snapshot_in_dispatch_order():
    k = EventKernel()
    k.schedule(3.0, lambda: None, category="late")
    ev = k.schedule(1.0, lambda: None)
    k.schedule(2.0, lambda: None, category="mid")
    ev.cancel()
    assert [e.category for e in k.live_events()] == ["mid", "late"]


# -- causality --------------------------------------------------------------

def named_callback():
    pass


def test_causality_violation_names_the_scheduling_site():
    k = EventKernel()
    k.schedule(10.0, lambda: None)
    k.run()
    with pytest.raises(ReproError) as e:
        k.schedule(3.0, named_callback)
    msg = str(e.value)
    assert "causality violation" in msg
    assert "scheduled from" in msg
    assert "named_callback" in msg


def test_causality_off_allows_rewinding_time():
    k = EventKernel(causality=False)
    k.schedule(10.0, lambda: None)
    k.run()
    k.schedule(3.0, lambda: None)   # a priority axis, not a clock
    assert k.run() == 1


def test_scheduling_at_current_time_is_legal():
    k = EventKernel()
    fired = []
    k.schedule(5.0, lambda: k.schedule(5.0, fired.append, "same-t"))
    k.run()
    assert fired == ["same-t"]


# -- cancellation -----------------------------------------------------------

def test_cancelled_events_never_fire():
    k = EventKernel()
    fired = []
    ev = k.schedule(1.0, fired.append, "dead")
    k.schedule(2.0, fired.append, "live")
    ev.cancel()
    assert k.run() == 1
    assert fired == ["live"]


def test_cancel_during_dispatch_of_an_earlier_event():
    k = EventKernel()
    fired = []
    later = k.schedule(2.0, fired.append, "victim")
    k.schedule(1.0, later.cancel)
    k.schedule(3.0, fired.append, "after")
    assert k.run() == 2
    assert fired == ["after"]


def test_cancel_after_firing_is_a_noop():
    k = EventKernel()
    ev = k.schedule(1.0, lambda: None)
    k.run()
    ev.cancel()
    assert ev.fired and not ev.cancelled


def test_cancelling_half_never_reorders_survivors():
    k = EventKernel()
    fired = []
    evs = [k.schedule(float(i % 7), fired.append, i) for i in range(400)]
    for ev in evs[::2]:
        ev.cancel()
    assert len(k) == 200
    k.run()
    survivors = [i for i in range(400) if i % 2 == 1]
    assert fired == sorted(survivors, key=lambda i: (i % 7, i))


def test_peek_time_skips_cancelled_prefix():
    k = EventKernel()
    first = k.schedule(1.0, lambda: None)
    k.schedule(2.0, lambda: None)
    assert k.peek_time() == 1.0
    first.cancel()
    assert k.peek_time() == 2.0
    assert k.peek_time() == 2.0     # idempotent


# -- skip_current -----------------------------------------------------------

def test_skip_current_outside_dispatch_is_an_error():
    with pytest.raises(ReproError):
        EventKernel().skip_current()


def test_skipped_events_cost_nothing():
    k = EventKernel()
    fired = []

    def stale():
        k.skip_current()
        k.skip_current()            # idempotent within one dispatch

    k.schedule(1.0, stale)
    k.schedule(2.0, fired.append, "real")
    assert k.run(RunPolicy(max_events=1)) == 1
    assert fired == ["real"]
    assert k.events_processed == 1


# -- run policies -----------------------------------------------------------

def test_until_leaves_later_events_queued():
    k = EventKernel()
    fired = []
    for t in (1.0, 2.0, 3.0):
        k.schedule(t, fired.append, t)
    assert k.run(until=2.0) == 2
    assert fired == [1.0, 2.0]
    assert len(k) == 1
    assert k.run() == 1


def test_max_events_budget():
    k = EventKernel()
    for t in range(5):
        k.schedule(float(t), lambda: None)
    assert k.run(max_events=2) == 2
    assert k.run(RunPolicy(max_events=2)) == 2
    assert k.run(RunPolicy()) == 1


def test_policy_constructors():
    """The default policy drains to quiescence; policies are values."""
    assert RunPolicy() == RunPolicy(until=None, max_events=None,
                                    quiescence=True)
    assert RunPolicy(max_events=3) != RunPolicy(until=3.0)
    with pytest.raises(AttributeError):     # frozen dataclass
        RunPolicy().until = 1.0


def test_no_quiescence_policy_skips_idle_hooks():
    k = EventKernel()
    calls = []
    k.hooks.subscribe("on_idle", lambda kk: calls.append("idle") or False)
    k.hooks.subscribe("on_quiescence", lambda kk: calls.append("q"))
    k.schedule(1.0, lambda: None)
    k.run(RunPolicy(quiescence=False))
    assert calls == []
    k.run()
    assert calls == ["idle", "q"]


def test_on_idle_may_re_arm_work():
    k = EventKernel()
    fired = []
    pumps = []

    def pump(kernel):
        if len(pumps) < 2:
            pumps.append(1)
            kernel.schedule(kernel.current_time + 1.0, fired.append, "pumped")
            return True
        return False

    quiesced = []
    k.hooks.subscribe("on_idle", pump)
    k.hooks.subscribe("on_quiescence", lambda kk: quiesced.append(1))
    k.schedule(1.0, fired.append, "seed")
    assert k.run() == 3
    assert fired == ["seed", "pumped", "pumped"]
    assert quiesced == [1]


# -- non-re-entrancy --------------------------------------------------------

_ENTRIES = {
    "run": lambda k: k.run(),
    "run_batch": lambda k: k.run_batch(),
    "step": lambda k: k.step(),
}


@pytest.mark.parametrize("outer", sorted(_ENTRIES))
@pytest.mark.parametrize("inner", sorted(_ENTRIES))
def test_kernel_is_not_reentrant_through_any_entry(outer, inner):
    """One rule for run/run_batch/step: a callback the kernel is
    dispatching cannot drive the same kernel.  (``step()`` used to
    dispatch outside the guard, so a stepped callback could nest.)"""
    k = EventKernel()
    refused = []

    def nest():
        with pytest.raises(ReproError, match="re-entered"):
            _ENTRIES[inner](k)
        refused.append(k.peek_time())   # peeking stays legal mid-dispatch

    k.schedule(1.0, nest)
    k.schedule(2.0, lambda: None)
    _ENTRIES[outer](k)
    assert refused == [2.0]
    # The guard is released afterwards: the kernel keeps working.
    k.run()
    assert k.empty and k.events_processed == 2


def test_step_runs_one_event_without_quiescence():
    k = EventKernel()
    fired, calls = [], []
    k.hooks.subscribe("on_idle", lambda kk: calls.append("idle") or False)
    k.schedule(1.0, fired.append, "a")
    k.schedule(2.0, fired.append, "b")
    assert k.step() and fired == ["a"] and len(k) == 1
    assert k.step() and fired == ["a", "b"]
    assert not k.step()
    assert calls == []


# -- hook bus ---------------------------------------------------------------

def test_notify_hooks_fire_in_lifecycle_order():
    k = EventKernel()
    seen = []
    k.hooks.subscribe("on_schedule", lambda kk, ev: seen.append(("s", ev.seq)))
    k.hooks.subscribe("on_dispatch_begin", lambda kk, ev: seen.append(("b", ev.seq)))
    k.hooks.subscribe("on_dispatch_end", lambda kk, ev: seen.append(("e", ev.seq)))
    k.hooks.subscribe("on_cancel", lambda kk, ev: seen.append(("c", ev.seq)))
    ev0 = k.schedule(1.0, lambda: None)
    k.schedule(2.0, lambda: None)
    ev0.cancel()
    k.run()
    assert seen == [("s", 0), ("s", 1), ("c", 0), ("b", 1), ("e", 1)]


def test_hot_flag_tracks_notify_subscribers():
    bus = HookBus()
    assert not bus.hot
    fn = bus.subscribe("on_schedule", lambda kk, ev: None)
    assert bus.hot
    bus.unsubscribe("on_schedule", fn)
    assert not bus.hot
    # Channel subscriptions never heat the notify fast path.
    bus.subscribe("net.send", lambda v: v)
    assert not bus.hot


def test_filter_chains_subscribers_in_order():
    bus = HookBus()
    assert bus.filter("x", 10) == 10          # passthrough
    bus.subscribe("x", lambda v: v + 1)
    bus.subscribe("x", lambda v: v * 2)
    assert bus.filter("x", 10) == 22


def test_decide_first_non_none_wins():
    bus = HookBus()
    assert bus.decide("verdict") is None
    bus.subscribe("verdict", lambda **ctx: None)
    bus.subscribe("verdict", lambda **ctx: "bounce")
    bus.subscribe("verdict", lambda **ctx: "ignored")
    assert bus.decide("verdict") == "bounce"


def test_has_reports_channel_subscription():
    bus = HookBus()
    assert not bus.has("net.send")
    fn = bus.subscribe("net.send", lambda v: v)
    assert bus.has("net.send")
    bus.unsubscribe("net.send", fn)
    assert not bus.has("net.send")


def test_unsubscribe_unknown_is_an_error():
    bus = HookBus()
    with pytest.raises(ReproError):
        bus.unsubscribe("on_schedule", lambda: None)
    with pytest.raises(ReproError):
        bus.unsubscribe("no.such.channel", lambda: None)


# -- MinHeap ----------------------------------------------------------------

def test_minheap_basics():
    h = MinHeap([3, 1, 2])
    assert len(h) == 3 and bool(h)
    assert h.peek() == 1
    assert h.pop() == 1
    h.push(0)
    assert h.replace(5) == 0
    assert sorted(h) == [2, 3, 5]
    h.rebuild([9, 4])
    assert [h.pop(), h.pop()] == [4, 9]
    assert not h
