"""Tests for platform profiles, including the Table 1 derivation."""

import pytest

from repro.core.isomalloc import IsomallocArena
from repro.core.stacks import (IsomallocStacks, MemoryAliasStacks,
                               StackCopyStacks)
from repro.errors import ThreadError
from repro.sim import PLATFORMS, Processor, get_platform


def test_all_expected_platforms_registered():
    for name in ("linux_x86", "mac_g5", "solaris", "ibm_sp", "alpha",
                 "ia64", "opteron", "bluegene_l", "windows"):
        assert name in PLATFORMS


def test_get_platform_unknown():
    with pytest.raises(KeyError):
        get_platform("cray_xmp")


def test_layout_matches_word_size():
    assert get_platform("linux_x86").layout().word_bits == 32
    assert get_platform("alpha").layout().word_bits == 64
    assert get_platform("bluegene_l").layout().word_bits == 32


def test_cycles_to_ns():
    opteron = get_platform("opteron")
    assert opteron.cycles_to_ns(22) == pytest.approx(10.0)


def test_with_overrides():
    base = get_platform("linux_x86")
    fast = base.with_overrides(cpu_ghz=3.2)
    assert fast.cpu_ghz == 3.2
    assert base.cpu_ghz == 1.6         # original untouched (frozen dataclass)
    assert fast.name == base.name


# -- Table 1: the portability matrix must be derivable from feature flags,
# -- by the stack managers themselves (their constructors act on it) -------

TABLE1_EXPECTED = {
    # platform      (stack copy, isomalloc, memory alias)
    "linux_x86":    ("Yes", "Yes", "Yes"),
    "ia64":         ("Maybe", "Yes", "Yes"),
    "opteron":      ("Yes", "Yes", "Yes"),
    "mac_g5":       ("Maybe", "Yes", "Yes"),
    "ibm_sp":       ("Yes", "Yes", "Yes"),
    "solaris":      ("Yes", "Yes", "Yes"),
    "alpha":        ("Yes", "Yes", "Yes"),
    "bluegene_l":   ("Maybe", "No", "Maybe"),
    "windows":      ("Yes", "Maybe", "Maybe"),
}


@pytest.mark.parametrize("name,expected", TABLE1_EXPECTED.items())
def test_table1_portability_derivation(name, expected):
    p = get_platform(name)
    assert (StackCopyStacks.support(p), IsomallocStacks.support(p),
            MemoryAliasStacks.support(p)) == expected


def _construct(manager, profile):
    proc = Processor(0, profile)
    if manager is IsomallocStacks:
        return manager(proc.space, profile,
                       IsomallocArena(profile.layout(), 1), 0)
    return manager(proc.space, profile)


@pytest.mark.parametrize("name", TABLE1_EXPECTED)
@pytest.mark.parametrize("column,manager", enumerate(
    [StackCopyStacks, IsomallocStacks, MemoryAliasStacks]))
def test_a_technique_constructs_iff_its_table1_cell_is_not_no(
        name, column, manager):
    """One statement per technique: the table's cell and the constructor's
    refusal cannot disagree (isomalloc on Windows once did — "Maybe" in
    the table, refused as "Table 1: 'No'" by the constructor)."""
    profile = get_platform(name)
    if TABLE1_EXPECTED[name][column] == "No":
        with pytest.raises(ThreadError, match="Table 1: 'No'"):
            _construct(manager, profile)
    else:
        assert _construct(manager, profile).create_stack().size > 0


def test_quirk_flags():
    assert get_platform("ibm_sp").ignores_repeated_sched_yield
    assert get_platform("alpha").ignores_repeated_sched_yield
    assert not get_platform("linux_x86").ignores_repeated_sched_yield


def test_table2_limits_encoded():
    assert get_platform("linux_x86").max_kthreads == 250
    assert get_platform("ibm_sp").max_processes == 100
    assert get_platform("solaris").max_processes == 25_000
    assert get_platform("mac_g5").max_processes == 500
    # "90000+" entries are encoded as unlimited.
    assert get_platform("alpha").max_kthreads is None
    assert get_platform("ia64").max_processes is None


def test_bluegene_has_no_pthreads_or_fork():
    bgl = get_platform("bluegene_l")
    assert bgl.max_kthreads == 0
    assert bgl.max_processes == 1
    assert bgl.microkernel
