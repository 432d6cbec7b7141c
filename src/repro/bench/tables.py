"""Row builders for the paper's tables."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.stacks import (IsomallocStacks, MemoryAliasStacks,
                               StackCopyStacks)
from repro.flows.scale import mechanism_limit_cell
from repro.sim import get_platform

__all__ = ["TABLE1_COLUMNS", "table1_rows", "TABLE2_COLUMNS",
           "TABLE2_PROBE_CAPS", "table2_rows"]

#: Paper Table 1 column order: (display name, platform profile).
TABLE1_COLUMNS: List[Tuple[str, str]] = [
    ("X86", "linux_x86"),
    ("IA64", "ia64"),
    ("Opteron", "opteron"),
    ("Mac OS X", "mac_g5"),
    ("IBM SP", "ibm_sp"),
    ("SUN", "solaris"),
    ("Alpha", "alpha"),
    ("BG/L", "bluegene_l"),
    ("Windows", "windows"),
]


def table1_rows() -> List[List[str]]:
    """Table 1: portability of the three migratable-thread techniques.

    Every cell is the stack manager's own ``support(profile)`` — the
    verdict its constructor acts on — *derived* from the platform's
    feature flags (mmap availability, stack-base fixity, QuickThreads
    port, microkernel remap extension).
    """
    techniques = [("Stack Copy", StackCopyStacks),
                  ("Isomalloc", IsomallocStacks),
                  ("Memory Alias", MemoryAliasStacks)]
    return [[label] + [manager.support(get_platform(pname))
                       for _, pname in TABLE1_COLUMNS]
            for label, manager in techniques]


#: Paper Table 2 column order: (display name, platform profile).
TABLE2_COLUMNS: List[Tuple[str, str]] = [
    ("Linux", "linux_x86"),
    ("Sun", "solaris"),
    ("IBM SP", "ibm_sp"),
    ("Alpha", "alpha"),
    ("Mac OS", "mac_g5"),
    ("IA-64", "ia64"),
]

#: Probe caps per (mechanism, platform): where the paper's experiment
#: stopped probing.  Cells whose cap is reached print with a trailing "+".
TABLE2_PROBE_CAPS: Dict[str, Dict[str, int]] = {
    "process": {"linux_x86": 20_000, "solaris": 30_000, "ibm_sp": 1_000,
                "alpha": 5_000, "mac_g5": 2_000, "ia64": 50_000},
    "pthread": {"linux_x86": 1_000, "solaris": 5_000, "ibm_sp": 5_000,
                "alpha": 90_000, "mac_g5": 10_000, "ia64": 30_000},
    "cth": {"linux_x86": 90_000, "solaris": 90_000, "ibm_sp": 20_000,
            "alpha": 90_000, "mac_g5": 90_000, "ia64": 50_000},
}

_MECHS = {
    "process": ("Process", "ulimit/kernel"),
    "pthread": ("Kernel Threads", "kernel"),
    "cth": ("User-level Threads", "memory"),
}


def table2_rows() -> List[List[str]]:
    """Table 2: practical flow-count limits, measured by live probing.

    Each cell creates flows on a fresh simulated processor until the OS
    model or memory refuses, or the paper's probe cap is reached (shown
    with a trailing ``+``, the paper's "90000+" notation).
    """
    rows = []
    for key, (label, factor) in _MECHS.items():
        row = [label, factor]
        for _, pname in TABLE2_COLUMNS:
            probe = mechanism_limit_cell(
                {"mechanism": key, "platform": pname,
                 "cap": TABLE2_PROBE_CAPS[key][pname], "chunk": 256}, None)
            if key == "process" and probe["hit_limit"]:
                # The probing program is itself a process; the paper
                # reports the kernel's total, so count it back in.
                row.append(str(probe["count"] + 1))
            else:
                row.append(probe["display"])
        rows.append(row)
    return rows
