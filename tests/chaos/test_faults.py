"""Tests for fault schedules: seeded draws, scripted replay, determinism."""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.chaos import (SITES, ChaosRunner, FaultConfig, FaultEvent,
                         FaultInjector, FaultSchedule,
                         SampleSortChaosWorkload)
from repro.chaos.faults import FAULTS
from repro.errors import ChaosError

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


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


def test_every_kind_is_drawable():
    kinds = {ev.kind for ev in drive(FaultSchedule.seeded(11, FULL_RATES),
                                     n=500)}
    assert kinds == {"drop", "delay", "dup", "reorder", "abort", "bounce",
                     "io_error", "corrupt", "crash", "evac"}


#: sha256 of the ``repr`` stream of ``drive(seeded(s, FULL_RATES), 500)``,
#: captured from the per-site ``if``/``elif`` draw that the table loop
#: replaced: the RNG stream and every event must not move.
SEEDED_STREAMS = {
    0: "6a7faf029103d2026a0aea072d8aff1e7cf4c8d76e0e6adc8a774e3d2ebde31c",
    7: "136d9dacedc04c732d6fd72383a03a56cd8e79facc5c332ff988fc9fb147778c",
    11: "582c34ed13c2dd86dd42f37f8fb0ed552f2fc63bc124d5371726ec6bb77206cd",
    42: "f537dc671ec4eb2f6ac610615a9adc567e5230e7a9f6c239d4c3f48db838c587",
}


@pytest.mark.parametrize("seed", sorted(SEEDED_STREAMS))
def test_seeded_event_streams_are_pinned(seed):
    events = drive(FaultSchedule.seeded(seed, FULL_RATES), n=500)
    text = "\n".join(repr(ev) for ev in events)
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_STREAMS[seed]


# -- the table is the model -------------------------------------------------

def test_every_rate_field_is_in_exactly_one_row():
    """No rate is accepted and then ignored, and no row names a rate
    ``FaultConfig`` does not have."""
    named = [row.rate for rows in FAULTS.values() for row in rows]
    rate_fields = [f.name for f in dataclasses.fields(FaultConfig)
                   if f.name.endswith("_rate")]
    assert sorted(named) == sorted(rate_fields)
    assert len(set(named)) == len(named)
    assert SITES == tuple(FAULTS)


def test_injector_counters_are_the_tables_in_row_order():
    """``results/chaos_sweep.json`` rows keep this insertion order."""
    counters = FaultInjector(FaultSchedule.scripted([])).counters
    assert list(counters) == [
        "sends_seen", "dropped", "delayed", "duplicated", "reordered",
        "migrations_vetoed", "migrations_bounced", "ckpt_io_errors",
        "ckpt_corrupted", "crashes", "evacuations"]
    assert list(counters)[1:] == [row.counter for rows in FAULTS.values()
                                  for row in rows]


# -- scripts are checked before they run -------------------------------------

@pytest.mark.parametrize("bad, why", [
    # a kind that is not its site's
    (FaultEvent("migrate", 0, "bounce"), "site 'migrate' has no fault kind"),
    (FaultEvent("send", 0, "explode"), "site 'send' has no fault kind"),
    (FaultEvent("barrier", 0, "drop"), "site 'barrier' has no fault kind"),
    # an argless kind with an arg
    (FaultEvent("send", 0, "drop", 5.0), "'drop' takes no arg"),
    (FaultEvent("migrate", 0, "abort", 0), "'abort' takes no arg"),
    # delay/dup: a finite real >= 0, never a bool
    (FaultEvent("send", 0, "delay"), "'delay' takes a finite real >= 0"),
    (FaultEvent("send", 0, "delay", -1.0), "finite real >= 0"),
    (FaultEvent("send", 0, "dup", float("inf")), "finite real >= 0"),
    (FaultEvent("send", 0, "delay", True), "got True"),
    (FaultEvent("send", 0, "dup", "9000"), "got '9000'"),
    # corrupt/crash/evac: a real in [0, 1)
    (FaultEvent("ckpt", 0, "corrupt"), r"'corrupt' takes a real in \[0, 1\)"),
    (FaultEvent("barrier", 0, "crash", "x"), r"a real in \[0, 1\)"),
    (FaultEvent("barrier", 0, "evac", 1.0), r"a real in \[0, 1\)"),
    (FaultEvent("ckpt", 0, "corrupt", float("nan")), "got nan"),
    (FaultEvent("barrier", 0, "crash", False), "got False"),
])
def test_scripts_are_checked_before_they_run(bad, why):
    """A malformed script is refused, positioned, before any run — never
    classified as a cleanly ``detected`` fault or a runtime ``error``."""
    script = [FaultEvent("send", 7, "reorder"), bad]
    runner = ChaosRunner(SampleSortChaosWorkload())
    with pytest.raises(ChaosError, match=r"^script\[1\]: .*" + why):
        runner.replay(script)


def test_legal_scripts_are_accepted():
    FaultSchedule.scripted([
        FaultEvent("send", 0, "delay", 0), FaultEvent("send", 1, "dup", 5),
        FaultEvent("ckpt", 0, "corrupt", 0.0),
        FaultEvent("barrier", 0, "evac", 0.999999),
        FaultEvent("mig_delivery", 0, "bounce")])


def test_the_checked_in_sweep_schedules_are_accepted():
    with open(RESULTS / "chaos_sweep.json") as fh:
        rows = json.load(fh)["results"]
    schedules = [[eval(text) for text in row["schedule"]]  # noqa: S307
                 for row in rows]
    assert sum(map(len, schedules)) > 0
    for events in schedules:
        assert FaultSchedule.scripted(events).script() == []


def test_victim_fractions_stay_in_unit_interval():
    for ev in drive(FaultSchedule.seeded(3, FULL_RATES), n=300):
        if ev.kind in ("crash", "evac", "corrupt"):
            assert 0.0 <= ev.arg < 1.0
        elif ev.kind in ("delay", "dup"):
            assert FULL_RATES.delay_ns_min <= ev.arg <= FULL_RATES.delay_ns_max
