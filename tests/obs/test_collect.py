"""RunObserver: attachment hygiene, busy attribution, channel capture,
and the fold that fills the registry at ``finalize``."""

import json

import pytest

from repro.ampi import AmpiRuntime
from repro.errors import ReproError
from repro.kernel.hooks import NOTIFY_HOOKS
from repro.obs import MetricsRegistry, RunObserver
from repro.obs.report import fold_metrics

from tests.obs.conftest import ring_migrate_main


def _bus_is_cold(bus):
    return (not bus.hot
            and all(not getattr(bus, name) for name in NOTIFY_HOOKS)
            and not any(bus.has(ch) for ch in ("net.send",
                                               "migration.done",
                                               "checkpoint.write")))


def test_detach_restores_every_kernel_to_the_cold_path():
    rt = AmpiRuntime(2, 4, ring_migrate_main(iterations=1))
    buses = ([rt.cluster.queue.hooks]
             + [s.kernel.hooks for s in rt.schedulers])
    assert all(_bus_is_cold(b) for b in buses)
    obs = RunObserver.for_ampi(rt)
    obs.attach()
    assert all(b.hot for b in buses)
    obs.detach()
    assert all(_bus_is_cold(b) for b in buses)
    # Double-detach must fail loudly, not silently half-unsubscribe.
    with pytest.raises(ReproError):
        obs.detach()


def test_registry_counters_match_runtime_ground_truth(observed_run):
    rt, obs = observed_run
    r = obs.finalize()
    mig = rt.migrator
    assert r.counter("migration.completed").value == \
        mig.migrations_completed
    assert r.counter("migration.returned").value == mig.migrations_returned
    sent = sum(p.messages_sent for p in rt.cluster.processors)
    assert r.counter("net.messages").value == sent > 0
    assert r.counter("checkpoint.writes").value > 0
    assert r.counter("kernel.switches").value > 0
    assert r.counter("kernel.dispatched").value == \
        sum(1 for e in obs.entries
            if e.get("ev") == "end" and not e.get("skipped"))


def test_each_pe_label_is_one_string_for_the_whole_run(observed_run):
    """Every ``busy``/``clock`` key naming a processor is the one label
    string the observer built for it, not a fresh ``str(i)`` per entry."""
    rt, obs = observed_run
    obs.finalize()
    labels = {}
    for e in obs.entries:
        for field in ("busy", "clock"):
            for key in e.get(field, ()):
                labels.setdefault(key, set()).add(id(key))
    assert set(labels) == {str(p.id) for p in rt.cluster.processors}
    assert all(len(ids) == 1 for ids in labels.values()), labels


def test_busy_attribution_sums_to_processor_busy_time(observed_run):
    rt, obs = observed_run
    obs.finalize()  # flushes tail charges after the last dispatch
    attributed = {}
    for e in obs.entries:
        for pe, ns in e.get("busy", {}).items():
            attributed[pe] = attributed.get(pe, 0.0) + ns
    for i, p in enumerate(rt.cluster.processors):
        expected = p.busy_ns - obs.busy_at_attach[i]
        assert attributed.get(str(p.id), 0.0) == pytest.approx(expected)


def test_channel_entries_are_recorded(observed_run):
    rt, obs = observed_run
    kinds = {e["ev"] for e in obs.entries if "ev" in e}
    assert {"schedule", "begin", "end", "send", "migration",
            "checkpoint"} <= kinds
    sends = [e for e in obs.entries if e.get("ev") == "send"]
    # Ring payloads are there among the runtime's own traffic
    # (thread images, barriers).
    assert any(e["bytes"] == 2048 for e in sends)
    assert all(e["bytes"] >= 0 for e in sends)
    migs = [e for e in obs.entries if e.get("ev") == "migration"]
    assert all({"src", "dst", "bytes"} <= set(e) for e in migs)


def test_finalize_publishes_per_pe_gauges(observed_run):
    rt, obs = observed_run
    r = obs.finalize()
    assert r.gauge("run.makespan_ns").value == pytest.approx(rt.makespan_ns)
    for p in rt.cluster.processors:
        assert r.gauge(f"pe{p.id}.busy_ns").value == pytest.approx(p.busy_ns)
        util = r.gauge(f"pe{p.id}.util").value
        assert 0.0 <= util <= 1.0


def _dispatched(obs):
    return sum(1 for e in obs.entries
               if e.get("ev") == "end" and not e.get("skipped"))


def test_observer_accepts_a_shared_registry():
    registry = MetricsRegistry()
    registry.counter("kernel.dispatched").inc(5)
    runs = []
    for _ in range(2):
        rt = AmpiRuntime(2, 4, ring_migrate_main(iterations=1))
        obs = RunObserver.for_ampi(rt, registry=registry)
        assert obs.registry is registry
        obs.attach()
        rt.run()
        obs.finalize()
        runs.append(obs)
    # The pre-existing count is additive, not reset — shared registries
    # aggregate across runs by design.
    assert registry.counter("kernel.dispatched").value == \
        5 + sum(_dispatched(obs) for obs in runs)
    assert registry.counter("net.messages").value == \
        sum(sum(1 for e in obs.entries if e.get("ev") == "send")
            for obs in runs)


def _snapshot(obs):
    return json.dumps(obs.registry.snapshot(), sort_keys=True)


def test_hooks_count_nothing_until_finalize(observed_run):
    _, obs = observed_run
    run_instruments = fold_metrics([], MetricsRegistry()).snapshot()
    snap = obs.registry.snapshot()
    for kind in ("counters", "histograms"):
        assert {name: snap[kind][name] for name in run_instruments[kind]} \
            == run_instruments[kind]
    assert obs.finalize().counter("kernel.dispatched").value == \
        _dispatched(obs) > 0


def test_finalize_twice_gives_an_identical_snapshot(observed_run):
    _, obs = observed_run
    obs.finalize()
    first = _snapshot(obs)
    obs.finalize()
    assert _snapshot(obs) == first


def _ring_run(at_150us):
    rt = AmpiRuntime(2, 4, ring_migrate_main(iterations=2))
    obs = RunObserver.for_ampi(rt).attach()
    rt.cluster.queue.schedule(150_000.0, at_150us, obs)
    rt.run()
    return obs


def test_a_mid_run_finalize_folds_each_entry_once():
    """``finalize`` mid-run and again at the end leaves the registry
    exactly as one end-of-run ``finalize`` of the same run does."""
    midway = []

    def finalize(obs):
        midway.append(obs.finalize().counter("kernel.dispatched").value)

    def nothing(obs):
        pass

    twice, once = _ring_run(finalize), _ring_run(nothing)
    twice.finalize()
    once.finalize()
    assert 0 < midway[0] < twice.registry.counter("kernel.dispatched").value
    assert _snapshot(twice) == _snapshot(once)
