"""Tests for fault schedules: seeded draws, scripted replay, determinism."""

import pytest

from repro.chaos import SITES, FaultConfig, FaultEvent, FaultSchedule
from repro.errors import ChaosError


FULL_RATES = FaultConfig(
    drop_rate=0.1, delay_rate=0.2, dup_rate=0.1, reorder_rate=0.1,
    migrate_abort_rate=0.3, migrate_bounce_rate=0.3,
    ckpt_error_rate=0.2, ckpt_corrupt_rate=0.2,
    crash_rate=0.3, evac_rate=0.3)


def drive(schedule, n=200):
    """Consult every site n times; return the applied events."""
    for _ in range(n):
        for site in SITES:
            schedule.decide(site)
    return schedule.injected


def test_seeded_schedule_is_deterministic():
    a = drive(FaultSchedule.seeded(42, FULL_RATES))
    b = drive(FaultSchedule.seeded(42, FULL_RATES))
    assert a == b
    assert len(a) > 0


def test_different_seeds_differ():
    a = drive(FaultSchedule.seeded(1, FULL_RATES))
    b = drive(FaultSchedule.seeded(2, FULL_RATES))
    assert a != b


def test_seq_advances_on_every_consultation():
    """Fault or not, each decide() consumes one (site, seq) address."""
    sched = FaultSchedule.seeded(0, FaultConfig())  # zero rates: no faults
    for _ in range(5):
        assert sched.decide("send") is None
    assert sched._seq["send"] == 5
    assert sched._seq["ckpt"] == 0


def test_scripted_matches_by_site_and_seq():
    ev = FaultEvent("send", 2, "drop")
    sched = FaultSchedule.scripted([ev])
    assert sched.decide("send") is None        # seq 0
    assert sched.decide("ckpt") is None        # wrong site
    assert sched.decide("send") is None        # seq 1
    assert sched.decide("send") is ev          # seq 2: hit
    assert sched.decide("send") is None        # seq 3
    assert sched.injected == [ev]


def test_seeded_script_replays_identically():
    """The recorded events of a seeded run, replayed scripted, fire at the
    same decision points — the reproducibility contract."""
    seeded = FaultSchedule.seeded(7, FULL_RATES)
    drive(seeded, n=50)
    replay = FaultSchedule.scripted(seeded.script())
    assert drive(replay, n=50) == seeded.injected


def test_event_repr_is_evalable():
    events = [FaultEvent("send", 3, "delay", 12_500.0),
              FaultEvent("barrier", 0, "crash", 0.25),
              FaultEvent("migrate", 1, "abort")]
    for ev in events:
        assert eval(repr(ev)) == ev  # noqa: S307 - the documented contract


def test_rates_must_sum_within_unit_interval():
    with pytest.raises(ChaosError):
        FaultSchedule.seeded(0, FaultConfig(drop_rate=0.7, delay_rate=0.5))


@pytest.mark.parametrize("bad, why", [
    # Each site's *sum* is legal here; a rate on its own is not.
    (dict(drop_rate=-0.5, delay_rate=0.6), "drop_rate is -0.5"),
    (dict(crash_rate=1.5, evac_rate=-0.6), "crash_rate is 1.5"),
    (dict(migrate_abort_rate=float("nan")), "migrate_abort_rate is nan"),
    (dict(delay_ns_min=9.0, delay_ns_max=3.0), "delay_ns_min 9.0 exceeds"),
])
def test_each_rate_and_the_delay_range_are_checked(bad, why):
    with pytest.raises(ChaosError, match=why):
        FaultConfig(**bad)


def test_needs_exactly_one_of_seed_or_script():
    with pytest.raises(ChaosError):
        FaultSchedule()
    with pytest.raises(ChaosError):
        FaultSchedule(seed=1, script=[])


def test_rejects_unknown_site():
    with pytest.raises(ChaosError):
        FaultSchedule.scripted([FaultEvent("disk", 0, "drop")])
    with pytest.raises(ChaosError):
        FaultSchedule.seeded(0).decide("disk")


def test_rejects_duplicate_scripted_point():
    with pytest.raises(ChaosError):
        FaultSchedule.scripted([FaultEvent("send", 0, "drop"),
                                FaultEvent("send", 0, "delay", 1.0)])


def test_max_faults_caps_injection():
    cfg = FaultConfig(drop_rate=1.0, max_faults=3)
    sched = FaultSchedule.seeded(0, cfg)
    drive(sched, n=10)
    assert len(sched.injected) == 3


def test_every_kind_is_drawable():
    kinds = {ev.kind for ev in drive(FaultSchedule.seeded(11, FULL_RATES),
                                     n=500)}
    assert kinds == {"drop", "delay", "dup", "reorder", "abort", "bounce",
                     "io_error", "corrupt", "crash", "evac"}


def test_victim_fractions_stay_in_unit_interval():
    for ev in drive(FaultSchedule.seeded(3, FULL_RATES), n=300):
        if ev.kind in ("crash", "evac", "corrupt"):
            assert 0.0 <= ev.arg < 1.0
        elif ev.kind in ("delay", "dup"):
            assert FULL_RATES.delay_ns_min <= ev.arg <= FULL_RATES.delay_ns_max
