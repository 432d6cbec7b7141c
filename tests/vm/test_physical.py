"""Unit tests for the physical frame pool."""

import pytest

from repro.errors import OutOfPhysicalMemory, VMError
from repro.vm import PhysicalMemory


def test_pool_capacity_accounting():
    pm = PhysicalMemory(16 * 4096, page_size=4096)
    assert pm.total_frames == 16
    assert pm.frames_in_use == 0
    f = pm.allocate_frame()
    assert pm.frames_in_use == 1
    assert pm.bytes_in_use == 4096
    pm.free_frame(f)
    assert pm.frames_in_use == 0
    assert pm.frames_free == 16


def test_exhaustion_raises():
    pm = PhysicalMemory(2 * 4096)
    pm.allocate_frame()
    pm.allocate_frame()
    with pytest.raises(OutOfPhysicalMemory):
        pm.allocate_frame()


def test_allocate_frames_all_or_nothing():
    pm = PhysicalMemory(4 * 4096)
    pm.allocate_frame()
    with pytest.raises(OutOfPhysicalMemory):
        pm.allocate_frames(4)
    # Nothing was taken by the failed bulk request.
    assert pm.frames_in_use == 1
    frames = pm.allocate_frames(3)
    assert len(frames) == 3
    assert pm.frames_free == 0


def test_free_then_reallocate_returns_zeroed_frame():
    pm = PhysicalMemory(1 * 4096)
    f = pm.allocate_frame()
    f.write(0, b"hello")
    pm.free_frame(f)
    g = pm.allocate_frame()
    assert g.read(0, 5) == b"\x00" * 5


def test_double_free_rejected():
    pm = PhysicalMemory(2 * 4096)
    f = pm.allocate_frame()
    pm.free_frame(f)
    with pytest.raises(VMError):
        pm.free_frame(f)


def test_foreign_frame_rejected():
    pm1 = PhysicalMemory(2 * 4096)
    pm2 = PhysicalMemory(2 * 4096)
    f = pm1.allocate_frame()
    with pytest.raises(VMError):
        pm2.free_frame(f)


def test_pinned_frame_cannot_be_freed():
    pm = PhysicalMemory(2 * 4096)
    f = pm.allocate_frame()
    f.pinned = True
    with pytest.raises(VMError):
        pm.free_frame(f)


def test_frame_lazy_materialization():
    pm = PhysicalMemory(4 * 4096)
    f = pm.allocate_frame()
    assert not f.materialized
    assert f.read(100, 8) == b"\x00" * 8          # read does not materialize
    assert not f.materialized
    f.write(0, b"x")
    assert f.materialized


def test_frame_read_write_bounds():
    pm = PhysicalMemory(4 * 4096)
    f = pm.allocate_frame()
    with pytest.raises(VMError):
        f.read(4090, 10)
    with pytest.raises(VMError):
        f.write(4095, b"ab")


def test_frame_copy_from():
    pm = PhysicalMemory(4 * 4096)
    a, b = pm.allocate_frame(), pm.allocate_frame()
    a.write(10, b"payload")
    b.copy_from(a)
    assert b.read(10, 7) == b"payload"


def test_bad_page_size_rejected():
    with pytest.raises(VMError):
        PhysicalMemory(4096, page_size=3000)
    with pytest.raises(VMError):
        PhysicalMemory(5000, page_size=4096)


def test_load_and_store_treat_frames_as_one_run():
    """Bytes at an offset of frames laid end to end, ragged at both ends;
    only the pages a store reaches are materialized."""
    pm = PhysicalMemory(16 * 256, page_size=256)
    frames = pm.allocate_frames(4)
    payload = bytes(range(200)) * 2
    pm.store(frames, 300, payload)                  # pages 1 and 2
    assert [f.materialized for f in frames] == [False, True, True, False]
    assert pm.load(frames, 290, 420) == bytes(10) + payload + bytes(10)
    assert pm.load(frames, 0, 256) == bytes(256)
    assert not frames[0].materialized
    assert pm.load(frames, 5, 0) == b""
    with pytest.raises(VMError, match="-1"):
        pm.load(frames, 0, -1)
