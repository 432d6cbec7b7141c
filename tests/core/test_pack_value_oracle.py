"""``pack_value`` against the pupper-driven codec it replaced.

Every value tree a thread image or a parked-rank record can hold — and
the subclasses that reach the codec only through its ``isinstance``
order (``bool``, ``np.float64``, ``IntEnum``, named tuples, ordered
dicts) — encodes to the bytes ``tests/core/pupref.py`` writes, so a
checkpoint blob (``pup_seal`` of them) and its simulated disk time are
unchanged.  What the reference refuses, ``pack_value`` refuses with the
same exception type: an int outside 64 bits or a type the codec has no
tag for is a ``PupError``.  ``unpack_value`` rebuilds what the
reference decoder rebuilds, type for type, and fails on a cut, padded
or flipped stream with the reference's exception type.
"""

import collections
import enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import Checkpointer
from repro.core.pup import pack_value, pup_seal, unpack_value
from tests.core.conftest import make_cluster

from . import pupref

INT64 = (-2 ** 63, 2 ** 63 - 1)


class Reason(enum.IntEnum):
    RECV = 1
    EDGE = 2 ** 63 - 1
    OVER = 2 ** 63             # one past the format: refused


Pair = collections.namedtuple("Pair", "rank tag")


class Label(str):
    pass


def ints(lo=INT64[0], hi=INT64[1]):
    return st.integers(lo, hi) | st.sampled_from(
        [lo, lo + 1, -1, 0, 1, hi - 1, hi])


dtypes = st.sampled_from([np.int64, np.float32, np.uint8, np.bool_, ">i4"])
arrays = hnp.arrays(dtypes, hnp.array_shapes(min_dims=0, max_dims=3,
                                             max_side=4))
strided = hnp.arrays(dtypes, hnp.array_shapes(min_dims=1, max_dims=3,
                                              max_side=4))

leaves = (st.none() | st.booleans() | ints()
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from([0.0, -0.0, float("inf"), -float("inf"),
                             float("nan")])
          | st.binary(max_size=40) | st.binary(max_size=40).map(bytearray)
          | st.text(max_size=12) | st.text(max_size=4).map(Label)
          | st.floats().map(np.float64)
          | st.sampled_from([Reason.RECV, Reason.EDGE])
          | arrays | strided.map(lambda a: a.T)
          | strided.map(lambda a: a[::2]))

keys = st.text(max_size=6) | ints() | st.tuples(st.text(max_size=4), ints())

values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.builds(Pair, inner, inner)
                   | st.dictionaries(keys, inner, max_size=4)
                   | st.dictionaries(keys, inner, max_size=4).map(
                       collections.OrderedDict)),
    max_leaves=12)

#: What the codec cannot encode: 64-bit overflows and tagless types.
refused = (st.sampled_from([INT64[0] - 1, INT64[1] + 1, 2 ** 64, -2 ** 70,
                            Reason.OVER])
           | st.sampled_from([{1, 2}, frozenset(), 1j, object(),
                              np.int64(3), np.bool_(True), range(2)]))


def outcome(pack, value):
    try:
        return pack(value), None
    except Exception as exc:           # the type is what is compared
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(values)
def test_pack_value_writes_the_reference_bytes(value):
    assert outcome(pack_value, value) == outcome(pupref.pack_value, value)


@settings(max_examples=200, deadline=None)
@given(values, refused, st.integers(0, 2))
def test_what_the_reference_refuses_is_refused_alike(value, bad, where):
    tree = [bad, [value, bad], {"k": (value, bad)}][where]
    got, want = (outcome(pack_value, tree),
                 outcome(pupref.pack_value, tree))
    assert got == want and want[1] is not None, (got, want)


def same(got, want):
    """Equal as values and as types, all the way down (NaN equals NaN;
    an array by dtype, shape and bytes)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == \
            (want.dtype, want.shape, want.tobytes())
        assert got.flags.writeable and got.flags.owndata
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            same(got[k], want[k])
    elif want != want:
        assert got != got
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(values)
def test_unpack_value_rebuilds_what_the_reference_rebuilds(value):
    blob = pack_value(value)
    same(unpack_value(blob), pupref.unpack_value(blob))


@settings(max_examples=150, deadline=None)
@given(values, st.data())
def test_a_damaged_stream_fails_as_the_reference_does(value, data):
    """A cut, an extra byte or a flipped byte: the same value or the
    same exception type as the reference decoder."""
    blob = bytearray(pack_value(value))
    damage = data.draw(st.sampled_from(["cut", "extend", "flip"]))
    if damage == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif damage == "extend":
        blob += b"\x00"
    else:
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
    got, want = (outcome(unpack_value, bytes(blob)),
                 outcome(pupref.unpack_value, bytes(blob)))
    if want[1] is None:
        same(got[0], want[0])
    else:
        assert got[1] is want[1], (got, want)


def test_a_surrogate_str_fails_as_the_reference_does():
    assert outcome(pack_value, ["ok", "\ud800"]) == \
        outcome(pupref.pack_value, ["ok", "\ud800"]) == \
        (None, UnicodeEncodeError)


@pytest.mark.parametrize("technique", ["isomalloc", "stack_copy",
                                       "memory_alias"])
def test_a_checkpoint_blob_is_the_sealed_reference_bytes(technique):
    """What the checkpointer writes to its simulated disk is
    ``pup_seal`` of the reference encoding of the migration image."""
    cl, scheds, mig, _ = make_cluster(2, technique=technique,
                                      emulate_swap=True)
    ck = Checkpointer(mig)

    def body(th):
        th.stack.consume(256)            # alloca(): live under stack copy
        th.write(th.stack.top - 200, b"on the stack" * 8)
        yield "suspend"

    t = scheds[0].create(body)
    scheds[0].run()
    blob = ck.stored(ck.checkpoint(t)).blob
    assert blob == pup_seal(pupref.pack_value(mig.pack(t)))
    assert b"on the stack" * 8 in blob


def test_an_image_shaped_tree_round_trips():
    image = {"tid": (0, 3), "name": "rank3",
             "stack": {"technique": "isomalloc", "size": 32768,
                       "slot": {"stack_contents": bytes(range(256)) * 128,
                                "heap_state": {"free": [(4096, 48)]}}},
             "saved_sp": 2 ** 47, "got_image": None}
    blob = pack_value(image)
    assert blob == pupref.pack_value(image)
    assert unpack_value(blob) == image
