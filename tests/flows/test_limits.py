"""Tests for the Table 2 limit probe."""

import pytest

from repro.flows import (AmpiThreadFlow, KernelThreadFlow, ProcessFlow,
                         UserThreadFlow, probe_limit)
from repro.sim import Processor, get_platform


def make_proc(platform):
    return Processor(0, get_platform(platform))


def test_probe_finds_linux_pthread_limit():
    probe = probe_limit(KernelThreadFlow(make_proc("linux_x86")), cap=1_000)
    assert probe.hit_limit
    assert probe.count == 250
    assert probe.display() == "250"
    assert probe.limiting_factor == "kernel"


def test_probe_finds_ibm_sp_process_limit():
    probe = probe_limit(ProcessFlow(make_proc("ibm_sp")), cap=1_000)
    assert probe.hit_limit
    assert probe.count == 99         # the program itself is process #100
    assert probe.limiting_factor == "ulimit/kernel"


def test_probe_cap_reached_reports_plus():
    probe = probe_limit(UserThreadFlow(make_proc("linux_x86")), cap=500)
    assert not probe.hit_limit
    assert probe.count == 500
    assert probe.display() == "500+"
    assert probe.limiting_factor == "memory"


def test_probe_cleans_up():
    p = make_proc("linux_x86")
    mech = KernelThreadFlow(p)
    probe_limit(mech, cap=1_000)
    assert p.kernel.kthread_count == 0
    assert mech.n_flows == 0


def test_probe_memory_limited_uthreads():
    """A tiny-memory machine bounds user-level threads by memory, as in
    Table 2's 'memory' limiting factor."""
    profile = get_platform("linux_x86").with_overrides(
        physical_memory_bytes=2 * 1024 * 1024)
    probe = probe_limit(UserThreadFlow(Processor(0, profile)), cap=10_000)
    assert probe.hit_limit
    assert probe.limiting_factor == "memory"
    assert probe.count == 512          # 2 MB / one lazily-faulted 4 KB page


@pytest.mark.parametrize("mechanism", [UserThreadFlow, AmpiThreadFlow])
def test_memory_limited_probe_leaks_nothing(mechanism):
    """The creation Table 2's memory limit refuses gives back the stack
    reservation (and the isomalloc slot) it had already taken."""
    profile = get_platform("linux_x86").with_overrides(
        physical_memory_bytes=64 * 4096)
    p = Processor(0, profile)
    mech = mechanism(p)
    iso_free = p.space.region_free_bytes("iso")
    probe = probe_limit(mech, cap=1_000)
    assert (probe.count, probe.limiting_factor) == (64, "memory")
    assert p.space.mappings() == []
    assert p.space.region_free_bytes("iso") == iso_free
    assert p.physical.frames_in_use == 0
    if mechanism is AmpiThreadFlow:
        assert mech.arena.slots_in_use() == 0


def test_probe_chunked_equals_unchunked():
    a = probe_limit(KernelThreadFlow(make_proc("linux_x86")), cap=1_000,
                    chunk=1)
    b = probe_limit(KernelThreadFlow(make_proc("linux_x86")), cap=1_000,
                    chunk=64)
    assert a.count == b.count == 250
