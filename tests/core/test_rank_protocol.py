"""The rank protocol against a reference model (hypothesis).

``RankProtocol`` is the one matching engine under ``FlowWorld`` and
``AmpiRuntime``.  Random sequences of ``arrive`` / ``take`` (which parks
on a miss) / barrier parks / ``release`` drive it and a list-and-dict
model written here, independently of its inlined predicate, and every
answer and the whole state must agree after every step:

* a take returns the oldest queued message its pattern matches, so
  messages on one ``(src, tag)`` channel never overtake each other;
* ``ANY_SOURCE``/``ANY_TAG`` and a communicator's ``_AnyTagOf`` pattern
  match what AMPI's matcher always matched;
* ``arrive`` is True exactly when the rank's parked receive matches the
  message, and then the record is gone;
* ``release`` fires only when exactly ``quorum`` ranks wait at the
  record, returns them in rank order and drops their records.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ampi.communicator import _AnyTagOf
from repro.core.ranks import ANY_SOURCE, ANY_TAG, RankProtocol, matches
from repro.errors import AmpiError, ReproError

N = 4
BARRIER = ("barrier",)
PREFIX = ("__comm", 1, "p2p")
#: Message tags: plain values, and tuples of one communicator (``PREFIX``)
#: and of another.
TAGS = ["x", "y", 0, PREFIX + ("x",), PREFIX + (0,), ("__comm", 2, "p2p", 0)]
PATTERNS = [ANY_TAG, "x", "y", 0, PREFIX + ("x",), _AnyTagOf(PREFIX)]


def model_matches(src, tag, source, pattern):
    if source != -1 and src != source:
        return False
    if isinstance(pattern, _AnyTagOf):
        return isinstance(tag, tuple) and tag[:-1] == PREFIX
    return pattern == -1 or tag == pattern


class Model:
    def __init__(self):
        self.queues = {rank: [] for rank in range(N)}
        self.parked = {}

    def arrive(self, dst, src, tag, payload):
        self.queues[dst].append((src, tag, payload))
        why = self.parked.get(dst)
        if (why is not None and why[0] == "recv"
                and model_matches(src, tag, why[1], why[2])):
            del self.parked[dst]
            return True
        return False

    def take(self, rank, source, tag):
        for rec in self.queues[rank]:
            if model_matches(rec[0], rec[1], source, tag):
                self.queues[rank].remove(rec)
                return rec
        if source != -1 and source not in range(N):
            return "refused"
        self.parked[rank] = ("recv", source, tag)
        return None

    def release(self, quorum):
        ranks = sorted(r for r, why in self.parked.items()
                       if why == BARRIER)
        if not ranks or len(ranks) != quorum:
            return []
        for rank in ranks:
            del self.parked[rank]
        return ranks


ranks = st.integers(0, N - 1)
sources = st.sampled_from([ANY_SOURCE, 0, 1, 2, 3, N, -5])
ops = st.lists(st.one_of(
    st.tuples(st.just("arrive"), ranks, ranks, st.sampled_from(TAGS)),
    st.tuples(st.just("take"), ranks, sources, st.sampled_from(PATTERNS)),
    st.tuples(st.just("barrier"), ranks),
    st.tuples(st.just("release"), st.integers(0, N)),
), max_size=60)


@given(ops=ops)
@settings(max_examples=300, deadline=None)
def test_the_protocol_answers_as_the_model_does(ops):
    protocol, model = RankProtocol(N, AmpiError), Model()
    taken = []
    for payload, op in enumerate(ops):
        kind = op[0]
        if kind == "arrive":
            _, dst, src, tag = op
            assert protocol.arrive(dst, src, tag, payload) \
                == model.arrive(dst, src, tag, payload)
        elif kind == "take":
            _, rank, source, tag = op
            want = model.take(rank, source, tag)
            if want == "refused":
                with pytest.raises(AmpiError, match=(
                        f"rank {rank}: receive from bad rank {source} "
                        f"\\(size {N}\\)")):
                    protocol.take(rank, source, tag)
            else:
                got = protocol.take(rank, source, tag)
                assert got == want
                if got is not None:
                    taken.append((rank, got))
        elif kind == "barrier":
            protocol.parked[op[1]] = model.parked[op[1]] = BARRIER
        else:
            assert protocol.release(BARRIER, op[1]) == model.release(op[1])
        assert protocol.parked == model.parked
        assert [q or [] for q in protocol.queues] == list(
            model.queues.values())
    # No overtaking: per (dst, src, tag) channel, payloads (numbered in
    # send order) come out increasing.
    last = {}
    for rank, (src, tag, payload) in taken:
        channel = (rank, src, repr(tag))
        assert payload > last.get(channel, -1)
        last[channel] = payload


@given(src=ranks, tag=st.sampled_from(TAGS), source=sources,
       pattern=st.sampled_from(PATTERNS))
def test_matches_is_the_model_predicate(src, tag, source, pattern):
    assert matches(src, tag, source, pattern) \
        == model_matches(src, tag, source, pattern)


def test_a_queue_opens_at_the_first_message_and_refusal_defaults_to_repro():
    protocol = RankProtocol(2)
    assert protocol.queues == [None, None]
    with pytest.raises(ReproError) as exc:
        protocol.take(0, 2, ANY_TAG)
    assert type(exc.value) is ReproError and protocol.parked == {}
    assert protocol.take(0, 1, ANY_TAG) is None
    assert protocol.parked == {0: ("recv", 1, ANY_TAG)}
    assert protocol.arrive(0, 1, "t", None) is True
    assert protocol.queues == [[(1, "t", None)], None]
