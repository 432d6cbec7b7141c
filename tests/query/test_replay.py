"""Time travel: runspecs, bisect, and replay-to-a-point state dumps.

The acceptance pins live here: bisect over two runs differing only in
seed must report the *true* first divergence (checked against a hand
scan of both traces), and ``at`` dumps must be byte-identical across
repeated invocations and across thread-form vs compiled-form runs."""

import pytest

from repro.errors import QueryError
from repro.query import (canonical_json, first_divergence, parse_runspec,
                         parse_timespec, replay_at, run_recorded)

from tests.query.conftest import GOLDEN_RUNSPEC


# -- runspecs ---------------------------------------------------------------


def test_runspec_parses_and_canonicalizes():
    spec = parse_runspec("chaos:stencil:seed=3")
    assert (spec.kind, spec.target, spec.params) == \
        ("chaos", "stencil", {"seed": 3})
    assert spec.canonical() == "chaos:stencil:seed=3"
    # Param order is not significant; the canonical form sorts it.
    a = parse_runspec("flows:ring:rounds=2:form=compiled:ranks=3")
    b = parse_runspec("flows:ring:form=compiled:ranks=3:rounds=2")
    assert a.canonical() == b.canonical() == \
        "flows:ring:form=compiled:ranks=3:rounds=2"


@pytest.mark.parametrize("bad", [
    "chaos",                        # no target
    "bench:stencil",                # unknown kind
    "chaos:quicksort",              # unknown target
    "chaos:stencil:ranks=4",        # flows-only param
    "chaos:stencil:seed",           # not key=value
    "flows:ring:form=threaded",     # unknown form
    "flows:nope",                   # unknown program
])
def test_bad_runspecs_are_query_errors(bad):
    with pytest.raises(QueryError, match="runspec|form"):
        parse_runspec(bad)


@pytest.mark.parametrize("bad, why", [
    ("chaos:stencil:seed=--5", "seed needs an integer"),
    ("flows:ring:ranks=abc", "ranks needs an integer"),
    ("chaos:stencil:seed=abc", "seed needs an integer"),
    ("flows:ring:form=thread:form=compiled", "param 'form' given more than once"),
    ("flows:spin:seed=3", "unknown param 'seed' for flows:spin"),
    ("flows:ring:cells=9", "unknown param 'cells' for flows:ring"),
    ("flows:stencil:cells=0", "a stencil strip needs at least one cell"),
])
def test_runspec_params_are_typed_unique_and_the_targets_own(bad, why):
    with pytest.raises(QueryError, match=f"bad runspec {bad!r}: {why}"):
        parse_runspec(bad)


def test_runspec_integers_keep_their_sign():
    assert parse_runspec("chaos:btmz:seed=-5").params == {"seed": -5}


@pytest.mark.parametrize("bad", ["@-3", "nan", "inf", "-inf"])
def test_timespec_refuses_negative_counts_and_non_finite_times(bad):
    with pytest.raises(QueryError, match=f"bad timespec {bad!r}"):
        parse_timespec(bad)


def test_timespec_parses_time_and_event_counts():
    assert parse_timespec("250000") == ("time", 250000.0)
    assert parse_timespec("1.5e6") == ("time", 1.5e6)
    assert parse_timespec("@120") == ("events", 120)
    for bad in ("@1.5", "@", "soon"):
        with pytest.raises(QueryError):
            parse_timespec(bad)


# -- bisect primitive: hand-constructed pins --------------------------------


def test_first_divergence_pinpoints_the_first_mismatch():
    a = [{"seq": 0}, {"seq": 1, "t": 5}, {"seq": 2}]
    b = [{"seq": 0}, {"seq": 1, "t": 9}, {"seq": 2}]
    assert first_divergence(a, b) == \
        {"index": 1, "a": {"seq": 1, "t": 5}, "b": {"seq": 1, "t": 9}}
    # Later mismatches must not mask the first one.
    c = [{"seq": 0}, {"seq": 1, "t": 9}, {"seq": 99}]
    assert first_divergence(a, c)["index"] == 1


def test_first_divergence_prefix_and_identical():
    a = [{"seq": 0}, {"seq": 1}]
    assert first_divergence(a, list(a)) is None
    assert first_divergence(a, a[:1]) == \
        {"index": 1, "a": {"seq": 1}, "b": None}
    assert first_divergence(a[:1], a) == \
        {"index": 1, "a": None, "b": {"seq": 1}}
    assert first_divergence([], []) is None


# -- replayed runs ----------------------------------------------------------


def test_flows_replay_is_deterministic_and_form_invariant():
    thread = parse_runspec("flows:stencil:form=thread")
    compiled = parse_runspec("flows:stencil:form=compiled")
    t1 = run_recorded(thread)
    t2 = run_recorded(thread)
    c1 = run_recorded(compiled)
    assert len(t1) > 0
    assert first_divergence(t1, t2) is None
    # The FlowWorld contract: thread and compiled forms of one program
    # produce byte-identical traces.
    assert canonical_json(t1) == canonical_json(c1)


def test_chaos_bisect_reports_the_true_first_divergence(chaos_trace):
    other = run_recorded(parse_runspec("chaos:stencil:seed=2"))
    d = first_divergence(chaos_trace, other)
    assert d is not None, "seeds 1 and 2 must diverge under chaos faults"
    hand = next(i for i, (x, y) in enumerate(zip(chaos_trace, other))
                if x != y)
    assert d["index"] == hand
    assert d["a"] == chaos_trace[hand]
    assert d["b"] == other[hand]
    assert chaos_trace[:hand] == other[:hand]


def test_chaos_same_seed_is_byte_identical(chaos_trace):
    again = run_recorded(parse_runspec(GOLDEN_RUNSPEC))
    assert canonical_json(again) == canonical_json(chaos_trace)


# -- at: state dumps --------------------------------------------------------


def test_flows_at_dump_is_byte_stable_across_forms():
    thread = parse_runspec("flows:stencil:form=thread")
    compiled = parse_runspec("flows:stencil:form=compiled")
    dump = canonical_json(replay_at(thread, "@40"))
    assert canonical_json(replay_at(thread, "@40")) == dump
    assert canonical_json(replay_at(compiled, "@40")) == dump
    state = replay_at(thread, "@40")
    assert state["kind"] == "flows"
    assert state["events_processed"] <= 40
    assert "form" not in dump


def test_flows_at_full_horizon_matches_a_completed_run():
    spec = parse_runspec("flows:ring:ranks=3:rounds=2")
    state = replay_at(spec, "@1000000")
    assert state["finished"] == 3
    assert state["pending_events"] == []
    assert all(ms == [] for ms in state["mailboxes"].values())


def test_chaos_at_dump_is_deterministic_and_coherent():
    spec = parse_runspec(GOLDEN_RUNSPEC)
    state = replay_at(spec, "250000")
    again = replay_at(spec, "250000")
    assert canonical_json(state) == canonical_json(again)
    assert state["kind"] == "chaos"
    assert state["runspec"] == GOLDEN_RUNSPEC
    assert state["at"] == {"kind": "time", "value": 250000.0}
    # Every network event inside the horizon was delivered; whatever is
    # still live is exactly the traffic crossing it.
    assert state["time_ns"] <= 250000.0
    for ev in state["in_flight"]:
        assert ev["t"] > 250000.0
    # The dump is structurally coherent: placements cover all ranks and
    # agree with the per-PE resident lists.
    placement = state["rank_placement"]
    assert len(placement) == state["num_ranks"]
    for pe, row in state["per_pe"].items():
        assert row["resident_ranks"] == \
            sorted(int(r) for r, p in placement.items() if str(p) == pe)


def test_chaos_at_event_bound_caps_network_events():
    spec = parse_runspec(GOLDEN_RUNSPEC)
    state = replay_at(spec, "@10")
    assert state["net_events_processed"] <= 10
    assert state["finished_ranks"] < state["num_ranks"]
