"""Benchmark harness: builders and renderers for every table and figure.

Each paper experiment has one builder here returning plain data (series or
table rows) and one ``run_<exp>()`` in :mod:`repro.bench.__main__` that
renders and saves its ``results/`` file; ``python -m repro.bench`` and the
pytest-benchmark targets under ``benchmarks/`` both call it, and the
targets add the shape criteria from DESIGN.md Section 4 and benchmark the
underlying primitive.
"""

from repro.bench.report import render_series, render_table, save_report
from repro.bench.figures import (FIGURE_PLATFORMS, context_switch_series,
                                 stack_size_series, bigsim_series,
                                 btmz_series, minimal_swap_rows)
from repro.bench.tables import table1_rows, table2_rows

__all__ = [
    "render_series",
    "render_table",
    "save_report",
    "FIGURE_PLATFORMS",
    "context_switch_series",
    "stack_size_series",
    "bigsim_series",
    "btmz_series",
    "minimal_swap_rows",
    "table1_rows",
    "table2_rows",
]
