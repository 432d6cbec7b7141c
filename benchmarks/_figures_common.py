"""Shared driver for the Figures 4–8 context-switch benchmarks."""

from __future__ import annotations

from repro.bench.__main__ import run_context_figure
from repro.bench.figures import FIGURE_PLATFORMS
from repro.flows import UserThreadFlow
from repro.sim import Processor, get_platform


def run_context_switch_figure(fig_no: int, benchmark) -> None:
    """Generate one of Figures 4–8, assert its shape, benchmark a switch."""
    profile = get_platform(FIGURE_PLATFORMS[fig_no])
    xs, series = run_context_figure(fig_no)

    def last(name):
        vals = [v for v in series[name] if v is not None]
        return vals[-1]

    def first(name):
        return series[name][0]

    if profile.ignores_repeated_sched_yield:
        # Figures 7-8: process/pthread "artificially low" (no-op yields).
        assert first("process") == first("pthread")
        assert first("process") < first("cth")
    else:
        # Figures 4-6: user-level threads fastest; kernel flows are
        # microseconds and above.
        assert first("cth") < first("ampi") < first("pthread")
        assert first("pthread") <= first("process")
        assert first("process") >= 1.0          # >= 1 us

    # Cth grows slowly and monotonically: the added cost saturates at the
    # cache-penalty ceiling rather than growing without bound.
    cth = [v for v in series["cth"] if v is not None]
    assert cth == sorted(cth)
    ceiling_us = profile.cache_penalty_ns / 1000.0
    assert last("cth") <= first("cth") + ceiling_us

    # Kernel mechanisms end at their platform limits (truncated series).
    if profile.max_kthreads is not None:
        assert series["pthread"][-1] is None
    if profile.max_processes is not None and profile.max_processes < 50_000:
        assert series["process"][-1] is None
    # User-level threads reach the end of the grid, except where a
    # per-user memory cap truncates them (the IBM SP's 15,000 in Table 2).
    if profile.max_uthreads is None:
        assert series["cth"][-1] is not None
        assert series["ampi"][-1] is not None
    else:
        measured = sum(1 for v in series["cth"] if v is not None)
        assert all(x <= profile.max_uthreads
                   for x in xs[:measured])

    # pytest-benchmark target: the real cost of one modeled uthread switch
    # computation on this platform.
    mech = UserThreadFlow(Processor(0, profile))
    benchmark(mech.switch_cost_ns, 1_000)
