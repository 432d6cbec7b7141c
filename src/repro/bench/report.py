"""Plain-text rendering of benchmark tables and series."""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

__all__ = ["render_table", "render_series", "save_report", "emit",
           "RESULTS_DIR"]

#: Where benchmark targets drop their text reports.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                           "results")


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render rows as an aligned ASCII table."""
    cols = [[str(h)] + [str(r[i]) for r in rows]
            for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def render_series(x_label: str, xs: Sequence, series: Dict[str, Sequence],
                  title: str = "", fmt: str = "{:.3f}") -> str:
    """Render named y-series over a shared x axis as an aligned table.

    Missing points (None) render as ``-`` — e.g. mechanisms past their
    flow-count limit in Figures 4–8.
    """
    headers = [x_label] + list(series)
    rows: List[List[str]] = []
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in series:
            y = series[name][i]
            row.append("-" if y is None else fmt.format(y))
        rows.append(row)
    return render_table(headers, rows, title=title)


def save_report(name: str, text: str) -> str:
    """Write a report under ``results/`` and return its path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.abspath(os.path.join(RESULTS_DIR, name))
    with open(path, "w") as f:
        f.write(text + "\n")
    return path


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under ``results/``."""
    print("\n" + text)
    print(f"[saved {save_report(name, text)}]")
