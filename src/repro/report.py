"""Plain-text rendering shared by every layer that prints a table.

Every figure/table experiment returns structured rows plus a ``render``
into the ASCII layout below, so the bench for Table 4 and the quickstart
example print identical artifacts.  The CLI, the engine's sweep table
and the run-log summary use the same helpers; they live outside
:mod:`repro.experiments` so that printing a table never imports the
experiment layer.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_series", "format_percent", "format_bars"]


def format_percent(x: float, digits: int = 1) -> str:
    """``0.4213`` -> ``"42.1%"``."""
    return f"{x * 100:.{digits}f}%"


def format_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    align_left_cols: int = 1,
) -> str:
    """Render an ASCII table with a title rule.

    The first ``align_left_cols`` columns are left-aligned (labels), the
    rest right-aligned (numbers).
    """
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        if len(row) != len(header):
            raise ValueError(f"row {row} has {len(row)} cells, header has {len(header)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(row: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.ljust(widths[i]) if i < align_left_cols else cell.rjust(widths[i]))
        return "  ".join(parts)

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, rule, fmt_row(list(header)), rule]
    lines.extend(fmt_row(row) for row in cells)
    lines.append(rule)
    return "\n".join(lines)


def format_series(title: str, xlabel: str, ylabel: str, points: Sequence[tuple[object, object]]) -> str:
    """Render an (x, y) series the way a figure's data table would look."""
    header = [xlabel, ylabel]
    return format_table(title, header, [[x, y] for x, y in points])


def format_bars(
    title: str,
    items: Sequence[tuple[str, float]],
    width: int = 40,
    value_format: str = "{:.3f}",
) -> str:
    """Render a horizontal ASCII bar chart (non-negative values).

    The longest bar spans ``width`` characters; labels left, values
    right.  This is how figure benches sketch the paper's bar charts in
    a terminal.
    """
    if not items:
        return title
    values = [v for _, v in items]
    if min(values) < 0:
        raise ValueError("format_bars only renders non-negative values")
    peak = max(values) or 1.0
    label_w = max(len(label) for label, _ in items)
    lines = [title]
    for label, value in items:
        bar = "#" * max(0, round(value / peak * width))
        lines.append(f"{label.ljust(label_w)}  {bar} {value_format.format(value)}")
    return "\n".join(lines)
