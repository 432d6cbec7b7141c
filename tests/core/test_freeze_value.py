"""The ownership helper pair: ``freeze_value`` at a send, ``thaw_value``
at each delivery (``repro.core.pup``).

An immutable value is its own frozen form; a mutable one freezes to its
packed bytes (an array to its own copy, which is what those bytes would
unpack to) and thaws to a fresh value every time; a value that
``pack_value`` would hand back as another type is refused.  The roads
that call the pair are pinned in
``tests/integration/test_message_ownership.py``.
"""

import numpy as np
import pytest

from repro.core.pup import (freeze_value, pack_value, pup_register,
                            thaw_value, unpack_value)
from repro.errors import PupError


class Particle:
    def __init__(self, x=0.0, tags=()):
        self.x, self.tags = x, list(tags)

    def pup(self, p):
        self.x = p.double(self.x)
        self.tags = p.list_int(self.tags)


pup_register(Particle, "tests.core.freeze_value.Particle")


@pytest.mark.parametrize("value", [None, True, 3, 2.5, 1j, "s", b"b",
                                   (1, ("a", None)), np.float64(1.5),
                                   np.int32(3)])
def test_immutable_values_are_their_own_frozen_form(value):
    assert freeze_value(value) is value


def test_a_registered_object_thaws_fresh_every_time():
    p = Particle(2.0, [1, 2])
    frozen = freeze_value(p)
    p.tags.append(3)
    a, b = thaw_value(frozen), thaw_value(frozen)
    assert a is not b and a.tags is not b.tags
    assert (a.x, a.tags) == (b.x, b.tags) == (2.0, [1, 2])


def test_a_tuple_holding_a_mutable_value_freezes_item_by_item():
    buf = [1.0]
    scalar = np.float64(2.0)
    frozen = freeze_value((buf, scalar, Particle(3.0)))
    buf.append(2.0)
    thawed = thaw_value(frozen)
    assert thawed[0] == [1.0]
    assert type(thawed[1]) is np.float64
    assert type(thawed[2]) is Particle


@pytest.mark.parametrize("value,text", [
    (np.array([object()]), "cannot send ndarray"),
    ([np.float64(1.0)], "cannot send float64 inside a list"),
    ({"k": Particle()}, "cannot send Particle inside a dict"),
])
def test_values_pack_value_would_change_are_refused(value, text):
    with pytest.raises(PupError, match=text):
        freeze_value(value)


@pytest.mark.parametrize("array", [
    np.arange(6.0).reshape(2, 3),
    np.arange(12, dtype=">i4").reshape(3, 4).T,
    np.asfortranarray(np.arange(6, dtype=np.uint8).reshape(2, 3)),
    np.arange(10)[::3],
    np.array(7.5),
    np.zeros((0, 3), dtype=np.bool_),
], ids=["c-order", "big-endian-transposed", "fortran", "strided", "0-d",
        "empty"])
def test_an_array_thaws_to_what_its_packed_bytes_unpack_to(array):
    want = unpack_value(pack_value(array))
    frozen = freeze_value(array)
    array[...] = 0
    got = thaw_value(frozen)
    assert got is not thaw_value(frozen)
    assert (got.dtype, got.shape, got.tobytes()) == \
        (want.dtype, want.shape, want.tobytes())
    assert (got.flags.c_contiguous, got.flags.writeable, got.flags.owndata) \
        == (want.flags.c_contiguous, want.flags.writeable, want.flags.owndata)
