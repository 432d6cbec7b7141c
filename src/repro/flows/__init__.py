"""The four flow-of-control mechanisms compared in the paper (Section 2).

Each mechanism creates *real resources* in the simulated machine (address
spaces for processes, stacks for threads, objects for events), is subject to
the platform's OS limit model (Table 2), and charges a mechanistic
context-switch cost to the processor clock (Figures 4–8):

* kernel mechanisms pay syscall entry/exit plus a run-queue term and, for
  processes, an address-space switch (TLB flush);
* all mechanisms pay a saturating cache-pollution penalty as the set of
  live flows outgrows the cache;
* on platforms whose kernel ignores repeated ``sched_yield`` (IBM SP and
  Alpha in the paper's Figures 7–8), the measured process/kthread switch is
  the artificially low no-op cost, exactly as the paper observed.
"""

from repro.flows.base import FlowHandle, FlowMechanism, YieldBenchmarkResult
from repro.flows.runtime import FlowProgram, FlowWorld, WorkloadRun
from repro.flows.compile import CompiledFlow, FlowCompileError, compile_flow
from repro.flows.process import ProcessFlow
from repro.flows.kthread import KernelThreadFlow
from repro.flows.uthread import AmpiThreadFlow, UserThreadFlow
from repro.flows.events import EventObjectFlow
from repro.flows.hybrid import HybridThreadFlow
from repro.flows.compiled import CompiledContinuationFlow
from repro.flows.limits import LimitProbe, probe_limit

__all__ = [
    "FlowHandle",
    "FlowMechanism",
    "YieldBenchmarkResult",
    "FlowProgram",
    "FlowWorld",
    "WorkloadRun",
    "CompiledFlow",
    "FlowCompileError",
    "compile_flow",
    "ProcessFlow",
    "KernelThreadFlow",
    "UserThreadFlow",
    "AmpiThreadFlow",
    "EventObjectFlow",
    "HybridThreadFlow",
    "CompiledContinuationFlow",
    "LimitProbe",
    "probe_limit",
    "MECHANISMS",
    "WORKLOAD_MECHANISMS",
]

#: The four mechanisms benchmarked in Figures 4-8, in the paper's order.
MECHANISMS = {
    "process": ProcessFlow,
    "pthread": KernelThreadFlow,
    "cth": UserThreadFlow,
    "ampi": AmpiThreadFlow,
}

#: Mechanisms that execute a :class:`FlowProgram` (thread form, its
#: N:M hybrid, and the compiled form), keyed by label: the set the
#: thread-vs-compiled comparisons run over.  ``EventObjectFlow`` is a
#: cost model only; hand-written event objects run on ``repro.charm``.
WORKLOAD_MECHANISMS = {
    "cth": UserThreadFlow,
    "n:m": HybridThreadFlow,
    "compiled": CompiledContinuationFlow,
}
