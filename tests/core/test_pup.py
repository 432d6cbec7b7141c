"""Tests for the PUP pack/unpack framework."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pup import (PackingPupper, SizingPupper, UnpackingPupper,
                            pup_pack, pup_register, pup_size, pup_unpack)
from repro.errors import PupError


@pup_register
class Point:
    def __init__(self, x=0.0, y=0.0):
        self.x, self.y = x, y

    def pup(self, p):
        self.x = p.double(self.x)
        self.y = p.double(self.y)


@pup_register
class Blob:
    def __init__(self, name="", data=b"", flags=None, weights=None):
        self.name = name
        self.data = data
        self.flags = flags if flags is not None else []
        self.weights = weights if weights is not None else []

    def pup(self, p):
        self.name = p.str(self.name)
        self.data = p.bytes(self.data)
        self.flags = p.list_int(self.flags)
        self.weights = p.list_double(self.weights)


@pup_register
class Nested:
    def __init__(self, origin=None, points=None, grid=None):
        self.origin = origin or Point()
        self.points = points or []
        self.grid = grid if grid is not None else np.zeros((2, 2))

    def pup(self, p):
        self.origin = p.obj(self.origin)
        self.points = p.list_obj(self.points)
        self.grid = p.array(self.grid)


def test_roundtrip_simple():
    q = pup_unpack(pup_pack(Point(1.5, -2.25)))
    assert isinstance(q, Point)
    assert (q.x, q.y) == (1.5, -2.25)


def test_roundtrip_strings_bytes_lists():
    b = Blob("héllo", b"\x00\xff", [1, -2, 3], [0.5, 1.5])
    q = pup_unpack(pup_pack(b))
    assert q.name == "héllo"
    assert q.data == b"\x00\xff"
    assert q.flags == [1, -2, 3]
    assert q.weights == [0.5, 1.5]


def test_roundtrip_nested_and_arrays():
    n = Nested(Point(9, 8), [Point(1, 2), Point(3, 4)],
               np.arange(6, dtype=np.float32).reshape(2, 3))
    q = pup_unpack(pup_pack(n))
    assert (q.origin.x, q.origin.y) == (9, 8)
    assert [(p.x, p.y) for p in q.points] == [(1, 2), (3, 4)]
    assert q.grid.dtype == np.float32
    np.testing.assert_array_equal(q.grid, n.grid)


def test_sizing_matches_packing():
    """The sizing phase must predict the packed size exactly."""
    for obj in (Point(1, 2), Blob("x", b"abc", [1], [2.0]),
                Nested(Point(), [Point()], np.ones((3, 3)))):
        assert pup_size(obj) == len(pup_pack(obj))


#: ``pup_pack`` output captured before the three entry points started
#: sharing ``BasePupper.obj``'s framing: name blob, then the fields.
NESTED_HEX = (
    "06000000000000004e65737465640500000000000000506f696e7400000000000022"
    "40000000000000204002000000000000000500000000000000506f696e7400000000"
    "0000f03f00000000000000400500000000000000506f696e74000000000000084000"
    "0000000000104003000000000000003c663402000000000000000200000000000000"
    "03000000000000001800000000000000000000000000803f00000040000040400000"
    "80400000a040")


def test_packed_bytes_of_a_nested_object_are_pinned():
    n = Nested(Point(9, 8), [Point(1, 2), Point(3, 4)],
               np.arange(6, dtype=np.float32).reshape(2, 3))
    assert pup_pack(n).hex() == NESTED_HEX
    assert pup_size(n) == len(NESTED_HEX) // 2 == 176


def test_unregistered_class_rejected():
    class Rogue:
        def pup(self, p):
            pass

    with pytest.raises(PupError):
        pup_pack(Rogue())


def test_unregistered_subclass_of_a_registered_class_is_refused_at_pack():
    """An inherited wire name would unpack as the *base*: a trailing-
    bytes error blamed on the wrong class, or — when the subclass adds
    no fields — silently the wrong type."""
    class Point3(Point):
        def __init__(self, x=0.0, y=0.0, z=0.0):
            super().__init__(x, y)
            self.z = z

        def pup(self, p):
            super().pup(p)
            self.z = p.double(self.z)

    class Alias(Point):
        pass

    for obj in (Point3(1, 2, 3), Alias(1, 2)):
        name = type(obj).__name__
        for entry in (pup_pack, pup_size, lambda o: pup_pack(Nested(o))):
            with pytest.raises(PupError, match=rf"{name} is not "
                               rf"pup_register'ed \(its base Point is\)"):
                entry(obj)
    pup_register(Point3, name="test-pup-Point3")
    back = pup_unpack(pup_pack(Point3(1, 2, 3)))
    assert type(back) is Point3 and back.z == 3


def test_unknown_wire_name_rejected():
    blob = pup_pack(Point(0, 0))
    # Corrupt the class name inside the buffer.
    bad = blob.replace(b"Point", b"Joint")
    with pytest.raises(PupError, match=r"^unpacking unknown pup class "
                                       r"'Joint'$"):
        pup_unpack(bad)


def test_truncated_buffer_rejected():
    blob = pup_pack(Blob("name", b"data", [1, 2, 3], []))
    with pytest.raises(PupError):
        pup_unpack(blob[:-4])


def test_trailing_garbage_rejected():
    blob = pup_pack(Point(1, 2))
    with pytest.raises(PupError):
        pup_unpack(blob + b"\x00" * 8)


def test_duplicate_registration_rejected():
    class A:
        def pup(self, p):
            pass

    pup_register(A, name="dup-test")
    pup_register(A, name="dup-test")     # same class again is fine

    class B:
        def pup(self, p):
            pass

    with pytest.raises(PupError):
        pup_register(B, name="dup-test")


def test_phase_flags():
    s, p = SizingPupper(), PackingPupper()
    u = UnpackingPupper(b"")
    assert s.is_sizing and not s.is_packing
    assert p.is_packing and not p.is_unpacking
    assert u.is_unpacking and not u.is_sizing


def test_bool_field():
    @pup_register
    class Flag:
        def __init__(self, on=False):
            self.on = on

        def pup(self, p):
            self.on = p.bool(self.on)

    assert pup_unpack(pup_pack(Flag(True))).on is True
    assert pup_unpack(pup_pack(Flag(False))).on is False


# -- error-path diagnostics --------------------------------------------------

def test_truncated_buffer_error_names_class_and_field():
    """A short blob must name the class and field, not raise struct.error."""
    blob = pup_pack(Point(1.5, 2.5))
    with pytest.raises(PupError, match=r"Point.*field #3.*unpacking"):
        pup_unpack(blob[:-4])


def test_truncated_blob_length_error_names_class():
    """Truncation inside a variable-length blob is equally diagnosable."""
    blob = pup_pack(Blob("name", b"0123456789", [], []))
    # Cut into the middle of the data payload: the length prefix promises
    # 10 bytes, fewer remain, and the error must still name the class.
    with pytest.raises(PupError, match=r"blob ran past end of buffer.*Blob"):
        pup_unpack(blob[:-20])


def test_overlong_buffer_error_names_class_and_byte_count():
    blob = pup_pack(Point(1, 2))
    with pytest.raises(PupError, match=r"^Point: 5 trailing bytes after "
                                       r"unpack — over-long blob or pup\(\) "
                                       r"asymmetry$"):
        pup_unpack(blob + b"\x00" * 5)


def test_pack_type_mismatch_raises_pup_error_not_struct_error():
    with pytest.raises(PupError, match=r"cannot pack.*Point.*packing"):
        pup_pack(Point("not-a-float", 2.0))


def test_nested_error_context_names_inner_class():
    """Errors inside a nested obj() field report the inner class path."""
    n = Nested(Point(0, 0), [Point(1, "bad")], np.zeros((1, 1)))
    with pytest.raises(PupError, match=r"Nested\.Point"):
        pup_pack(n)


# -- property tests ----------------------------------------------------------

@given(x=st.floats(allow_nan=False, allow_infinity=False),
       y=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_point_roundtrip_property(x, y):
    q = pup_unpack(pup_pack(Point(x, y)))
    assert q.x == x and q.y == y


@given(name=st.text(max_size=40), data=st.binary(max_size=200),
       flags=st.lists(st.integers(min_value=-2**62, max_value=2**62),
                      max_size=20))
@settings(max_examples=60, deadline=None)
def test_blob_roundtrip_property(name, data, flags):
    q = pup_unpack(pup_pack(Blob(name, data, flags, [])))
    assert q.name == name and q.data == data and q.flags == flags


@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda nd: st.lists(st.integers(min_value=1, max_value=5),
                        min_size=nd, max_size=nd)))
@settings(max_examples=40, deadline=None)
def test_array_shape_roundtrip_property(shape):
    arr = np.arange(int(np.prod(shape)) if shape else 1,
                    dtype=np.int64).reshape(shape or ())
    n = Nested(grid=arr)
    q = pup_unpack(pup_pack(n))
    np.testing.assert_array_equal(q.grid, arr)
    assert q.grid.shape == arr.shape


@given(st.binary(min_size=0, max_size=100))
@settings(max_examples=60, deadline=None)
def test_sizing_equals_packing_property(data):
    b = Blob("n", data, list(range(len(data) % 7)), [1.0] * (len(data) % 5))
    assert pup_size(b) == len(pup_pack(b))
