"""Platform profiles for the paper's evaluation machines.

Each :class:`PlatformProfile` bundles:

* machine parameters (word size, clock rate, page size, physical memory);
* **portability feature flags** from which Table 1's Yes/Maybe/No matrix is
  *derived*, not transcribed: whether ``mmap`` exists, whether a
  Windows-style mapping equivalent exists, whether the system stack base is
  fixed across nodes, whether our QuickThreads-based stack-copy
  implementation was ported, whether a microkernel extension could support
  remapping (the Blue Gene/L case, Section 3.4.4).  Each stack manager in
  :mod:`repro.core.stacks` turns them into its own verdict
  (``support(profile)``), which its constructor acts on;
* **scheduling cost constants** driving the Figures 4–8 context-switch
  curves.  Kernel mechanisms pay syscall entry/exit plus a run-queue term
  (linear in the number of runnable flows, the pre-O(1)-scheduler
  behaviour); all mechanisms pay a saturating cache-pollution term as the
  set of live flows outgrows the cache; the IBM SP and Alpha "ignore
  repeated sched_yield" quirk the paper calls out in Figures 7–8 is a flag;
* **practical limits** reproducing Table 2;
* a :class:`~repro.vm.costs.MemoryCostModel` driving Figure 9.

Calibration note: constants are chosen to match the *order of magnitude and
shape* of the paper's plots (user-level threads fastest on most machines,
microsecond-scale kernel switches, ~4 µs memory-aliasing switches on Linux
x86), not to match exact 2006 wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.vm.costs import MemoryCostModel
from repro.vm.layout import AddressSpaceLayout, GB, MB

__all__ = ["PlatformProfile", "PLATFORMS", "get_platform"]


@dataclass(frozen=True)
class PlatformProfile:
    """Description of one simulated machine model (see module docstring)."""

    name: str
    description: str
    word_bits: int
    cpu_ghz: float
    page_size: int = 4096
    physical_memory_bytes: int = 1 * GB

    # -- portability feature flags (Table 1 inputs) ------------------------
    has_mmap: bool = True
    mmap_equivalent: bool = False          # Windows MapViewOfFileEx
    fixed_stack_base: bool = True          # no stack-address randomization
    quickthreads_port: bool = True         # our stack-copy impl exists here
    microkernel: bool = False              # BG/L, ASCI Red style
    microkernel_remap_extension: bool = False  # BG/L heap-over-stack remap
    isomalloc_impl: bool = True            # we have run isomalloc here
    memalias_impl: bool = True             # we have run memory aliasing here

    # -- context-switch cost constants (ns) --------------------------------
    #: Kernel entry and exit a *context switch* pays: the process and
    #: kernel-thread switches (``ProcessFlow``, ``KernelThreadFlow``, the
    #: kernel share of ``HybridThreadFlow``) and each scheduler-activation
    #: upcall of ``CthScheduler``'s blocking I/O.  A mapping call's kernel
    #: entry is ``mem.syscall_ns``, a separate constant with a different
    #: value on every built-in platform.
    syscall_ns: float = 300.0
    process_switch_ns: float = 1_500.0     # kernel work beyond the syscall
    kthread_switch_ns: float = 1_200.0
    uthread_switch_ns: float = 350.0       # Cth: register swap + scheduler
    ampi_overhead_ns: float = 450.0        # GOT swap + AMPI scheduler layer
    event_dispatch_ns: float = 120.0       # event-driven object dispatch
    runqueue_ns_per_flow: float = 0.0      # O(n) kernel scheduler coefficient
    cache_penalty_ns: float = 300.0        # saturating cache-pollution ceiling
    cache_flows_scale: float = 2_000.0     # flows at which penalty half-saturates
    #: The TLB flush a process switch pays (``ProcessFlow``).  A
    #: memory-aliasing remap's flush is ``mem.tlb_flush_ns``, a separate
    #: constant.
    tlb_flush_ns: float = 500.0
    ignores_repeated_sched_yield: bool = False
    sched_yield_noop_ns: float = 250.0     # quirk: cost of the ignored yield

    # -- creation cost constants (ns) ---------------------------------------
    fork_ns: float = 150_000.0             # beyond address-space copying
    pthread_create_ns: float = 25_000.0
    uthread_create_ns: float = 2_500.0     # beyond the stack mmap

    # -- practical limits (Table 2); None means "no practical limit" -------
    max_processes: Optional[int] = None
    max_kthreads: Optional[int] = None
    max_uthreads: Optional[int] = None     # usually memory-bound -> None

    # -- memory system -------------------------------------------------------
    mem: MemoryCostModel = field(default_factory=MemoryCostModel)

    def layout(self) -> AddressSpaceLayout:
        """Build the address-space layout this machine model uses."""
        if self.word_bits == 32:
            return AddressSpaceLayout.small32(self.page_size)
        return AddressSpaceLayout.large64(self.page_size)

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert CPU cycles to nanoseconds at this machine's clock rate."""
        return cycles / self.cpu_ghz

    def with_overrides(self, **kwargs) -> "PlatformProfile":
        """Return a copy with some fields replaced (scenario building)."""
        return replace(self, **kwargs)


def _mem(bw: float, syscall: float, fixed: float, per_page: float,
         tlb: float) -> MemoryCostModel:
    return MemoryCostModel(
        memcpy_bytes_per_ns=bw,
        syscall_ns=syscall,
        mmap_fixed_ns=fixed,
        per_page_map_ns=per_page,
        tlb_flush_ns=tlb,
    )


#: All built-in machine models, keyed by short name.  Written only at
#: import time by the ``_register`` calls below (frozen PlatformProfile
#: values, never touched per run), so it cannot leak one run's state
#: into the next (a ``MODULE_STATE`` row in ``tests/test_layering.py``).
PLATFORMS: Dict[str, PlatformProfile] = {}


def _register(p: PlatformProfile) -> PlatformProfile:
    PLATFORMS[p.name] = p
    return p


#: Figure 4 machine: 1.6 GHz Pentium M, Linux 2.4.25 / Red Hat 9.
#: The 2.4 kernel's O(n) scheduler gives kernel flows their growth with n;
#: RH9's default thread limits give Table 2's "250 pthreads".
LINUX_X86 = _register(PlatformProfile(
    name="linux_x86",
    description="x86 laptop, 1.6 GHz Pentium M, Linux 2.4.25/glibc 2.3.3 (Red Hat 9)",
    word_bits=32,
    cpu_ghz=1.6,
    physical_memory_bytes=1 * GB,
    syscall_ns=350.0,
    process_switch_ns=2_100.0,
    kthread_switch_ns=1_500.0,
    uthread_switch_ns=380.0,
    ampi_overhead_ns=420.0,
    runqueue_ns_per_flow=0.9,
    cache_penalty_ns=260.0,
    cache_flows_scale=3_000.0,
    max_processes=8_000,
    max_kthreads=250,
    max_uthreads=None,
    mem=_mem(bw=2.0, syscall=1_500.0, fixed=1_400.0, per_page=8.0, tlb=600.0),
))

#: Figure 5 machine: Turing cluster node, 2 GHz PowerPC G5, Mac OS X.
MAC_G5 = _register(PlatformProfile(
    name="mac_g5",
    description="Apple G5, 2 GHz PowerPC 970, Mac OS X (Turing cluster, UIUC)",
    word_bits=64,
    cpu_ghz=2.0,
    physical_memory_bytes=4 * GB,
    quickthreads_port=False,      # Table 1: stack copy "Maybe" on Mac OS X
    syscall_ns=800.0,
    process_switch_ns=5_200.0,
    kthread_switch_ns=3_300.0,
    uthread_switch_ns=450.0,
    ampi_overhead_ns=500.0,
    runqueue_ns_per_flow=0.35,
    cache_penalty_ns=320.0,
    cache_flows_scale=2_500.0,
    max_processes=500,
    max_kthreads=7_000,
    max_uthreads=None,
    mem=_mem(bw=3.0, syscall=2_000.0, fixed=1_800.0, per_page=10.0, tlb=700.0),
))

#: Figure 6 machine: 700 MHz SunBlade 1000, Solaris 9.
SOLARIS = _register(PlatformProfile(
    name="solaris",
    description="SunBlade 1000 workstation, 700 MHz UltraSPARC III, Solaris 9",
    word_bits=64,
    cpu_ghz=0.7,
    physical_memory_bytes=1 * GB,
    syscall_ns=900.0,
    process_switch_ns=11_000.0,
    kthread_switch_ns=6_000.0,   # Solaris LWPs: threads ~ processes in cost
    uthread_switch_ns=1_250.0,
    ampi_overhead_ns=1_300.0,
    runqueue_ns_per_flow=0.5,
    cache_penalty_ns=900.0,
    cache_flows_scale=2_000.0,
    max_processes=25_000,
    max_kthreads=3_000,
    max_uthreads=None,
    mem=_mem(bw=0.9, syscall=2_500.0, fixed=2_200.0, per_page=20.0, tlb=900.0),
))

#: Figure 7 machine: one 1.3 GHz Power4 "Regatta" node of cu.ncsa, AIX 5.1.
#: AIX ignores repeated sched_yield, so process/kthread curves are
#: artificially low — the paper flags this explicitly.
IBM_SP = _register(PlatformProfile(
    name="ibm_sp",
    description="IBM SP, 1.3 GHz POWER4 Regatta node, AIX 5.1 (cu.ncsa.uiuc.edu)",
    word_bits=64,
    cpu_ghz=1.3,
    physical_memory_bytes=4 * GB,
    syscall_ns=600.0,
    process_switch_ns=4_000.0,
    kthread_switch_ns=2_600.0,
    uthread_switch_ns=900.0,
    ampi_overhead_ns=900.0,
    runqueue_ns_per_flow=0.4,
    cache_penalty_ns=2_200.0,     # Cth growth is pronounced on this machine
    cache_flows_scale=800.0,
    ignores_repeated_sched_yield=True,
    sched_yield_noop_ns=280.0,
    max_processes=100,            # Table 2: per-user process limit was 100
    max_kthreads=2_000,
    max_uthreads=15_000,          # Table 2: memory-bound at ~15000
    mem=_mem(bw=2.5, syscall=1_800.0, fixed=1_600.0, per_page=12.0, tlb=800.0),
))

#: Figure 8 machine: one 1 GHz ES45 AlphaServer node of lemieux.psc.edu.
ALPHA = _register(PlatformProfile(
    name="alpha",
    description="HP/Compaq AlphaServer ES45, 1 GHz EV68, Tru64 Unix (lemieux.psc.edu)",
    word_bits=64,
    cpu_ghz=1.0,
    physical_memory_bytes=4 * GB,
    syscall_ns=700.0,
    process_switch_ns=5_000.0,
    kthread_switch_ns=3_000.0,
    uthread_switch_ns=1_350.0,
    ampi_overhead_ns=800.0,
    runqueue_ns_per_flow=0.3,
    cache_penalty_ns=700.0,
    cache_flows_scale=2_000.0,
    ignores_repeated_sched_yield=True,
    sched_yield_noop_ns=380.0,
    max_processes=1_000,
    max_kthreads=None,            # Table 2: "90000+"
    max_uthreads=None,
    mem=_mem(bw=2.0, syscall=2_000.0, fixed=1_800.0, per_page=15.0, tlb=850.0),
))

#: Table 2 column: IA-64 (Itanium) — generous limits, no QuickThreads port.
IA64 = _register(PlatformProfile(
    name="ia64",
    description="Itanium 2 cluster node, Linux (IA-64)",
    word_bits=64,
    cpu_ghz=1.5,
    physical_memory_bytes=4 * GB,
    quickthreads_port=False,      # Table 1: stack copy "Maybe" on IA64
    syscall_ns=500.0,
    process_switch_ns=2_800.0,
    kthread_switch_ns=1_900.0,
    uthread_switch_ns=600.0,
    ampi_overhead_ns=600.0,
    runqueue_ns_per_flow=0.2,
    max_processes=None,           # Table 2: "50000+"
    max_kthreads=None,            # Table 2: "30000+"
    max_uthreads=None,
    mem=_mem(bw=4.0, syscall=1_200.0, fixed=1_100.0, per_page=9.0, tlb=650.0),
))

#: Figure 10 machine: 2.2 GHz Athlon64 (x86-64), used for the minimal-swap
#: measurement (16 ns in 32-bit mode, 18 ns in 64-bit mode).
OPTERON = _register(PlatformProfile(
    name="opteron",
    description="2.2 GHz Athlon64/Opteron, x86-64 Linux",
    word_bits=64,
    cpu_ghz=2.2,
    physical_memory_bytes=4 * GB,
    syscall_ns=250.0,
    process_switch_ns=1_600.0,
    kthread_switch_ns=1_100.0,
    uthread_switch_ns=280.0,
    ampi_overhead_ns=350.0,
    runqueue_ns_per_flow=0.2,
    max_processes=30_000,
    max_kthreads=30_000,
    max_uthreads=None,
    mem=_mem(bw=3.5, syscall=900.0, fixed=900.0, per_page=7.0, tlb=500.0),
))

#: Figure 12 machine: NCSA Tungsten — Dell PowerEdge 1750 nodes with two
#: 3.2 GHz Xeons, Red Hat Linux, Myrinet (paper Section 4.5).  32-bit
#: like the laptop profile but a much faster clock and a 2.4-era kernel.
TUNGSTEN = _register(PlatformProfile(
    name="tungsten_xeon",
    description="NCSA Tungsten: Dell PowerEdge 1750, 2x 3.2 GHz Xeon, "
                "Red Hat Linux, Myrinet",
    word_bits=32,
    cpu_ghz=3.2,
    physical_memory_bytes=3 * GB,
    syscall_ns=250.0,
    process_switch_ns=1_400.0,
    kthread_switch_ns=1_000.0,
    uthread_switch_ns=220.0,
    ampi_overhead_ns=260.0,
    runqueue_ns_per_flow=0.6,
    cache_penalty_ns=200.0,
    cache_flows_scale=3_000.0,
    max_processes=8_000,
    max_kthreads=1_000,
    max_uthreads=None,
    mem=_mem(bw=3.2, syscall=900.0, fixed=900.0, per_page=6.0, tlb=450.0),
))

#: Blue Gene/L compute node: 32-bit PowerPC 440, microkernel, no mmap,
#: no fork/system/exec, no pthreads (paper Sections 2.1-2.2, 3.4.4).
BLUEGENE_L = _register(PlatformProfile(
    name="bluegene_l",
    description="Blue Gene/L compute node, 700 MHz PowerPC 440, CNK microkernel",
    word_bits=32,
    cpu_ghz=0.7,
    physical_memory_bytes=512 * MB,
    has_mmap=False,
    microkernel=True,
    microkernel_remap_extension=True,  # our proposed CNK extension
    quickthreads_port=False,
    isomalloc_impl=False,
    memalias_impl=False,
    syscall_ns=400.0,
    uthread_switch_ns=1_000.0,
    ampi_overhead_ns=900.0,
    max_processes=1,              # one process per compute node
    max_kthreads=0,               # no pthreads at all
    max_uthreads=None,
    mem=_mem(bw=1.0, syscall=1_500.0, fixed=1_500.0, per_page=20.0, tlb=800.0),
))

#: Windows: no mmap but MapViewOfFileEx is an equivalent; stack copy works.
WINDOWS = _register(PlatformProfile(
    name="windows",
    description="x86 Windows (Win32), 2 GHz class",
    word_bits=32,
    cpu_ghz=2.0,
    physical_memory_bytes=2 * GB,
    has_mmap=False,
    mmap_equivalent=True,
    isomalloc_impl=False,
    memalias_impl=False,
    syscall_ns=600.0,
    process_switch_ns=4_500.0,
    kthread_switch_ns=2_400.0,
    uthread_switch_ns=500.0,
    ampi_overhead_ns=600.0,
    max_processes=2_000,
    max_kthreads=2_000,
    max_uthreads=None,
    mem=_mem(bw=2.0, syscall=2_200.0, fixed=2_000.0, per_page=15.0, tlb=700.0),
))


def get_platform(name: str) -> PlatformProfile:
    """Look up a built-in platform profile by name.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is unknown.
    """
    try:
        return PLATFORMS[name]
    except KeyError:
        known = ", ".join(sorted(PLATFORMS))
        raise KeyError(f"unknown platform {name!r}; known: {known}") from None
