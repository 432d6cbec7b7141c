"""Benchmark harness: builders and renderers for every table and figure.

Each paper experiment has one builder returning plain data (series or
table rows) and one ``run_<exp>()`` — in :mod:`repro.bench.__main__`, or
in :mod:`repro.bench.ablations` for the ablations — that renders and
saves its ``results/`` file.  ``python -m repro.bench`` is the one writer
of every ``results/*.txt`` report; ``tests/claims/`` calls the same
functions, asserts the shape criteria from DESIGN.md Section 4 and
byte-compares each report.  Only the CLI imports
:mod:`repro.bench.ablations`.
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
