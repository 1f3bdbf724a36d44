"""ASCII tables and series for the experiment harness.

Every benchmark prints its result in the same layout: a header, aligned
columns, one row per configuration — the rows the paper's tables would
carry.  Progressive experiments print series blocks (one line per
checkpoint) suitable for eyeballing crossovers.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.evaluation.progressive import ProgressiveCurve


def format_table(
    rows: Iterable[Mapping[str, str]],
    title: str = "",
    first_column: str = "",
) -> str:
    """Render dict-rows as an aligned ASCII table.

    Args:
        rows: mappings column → formatted value; the union of keys defines
            the columns (in first-appearance order).
        title: optional heading line.
        first_column: optional name of a column to force leftmost.
    """
    row_list = [dict(row) for row in rows]
    columns: list[str] = []
    for row in row_list:
        for key in row:
            if key not in columns:
                columns.append(key)
    if first_column and first_column in columns:
        columns.remove(first_column)
        columns.insert(0, first_column)
    widths = {
        col: max(len(col), *(len(row.get(col, "")) for row in row_list), 1)
        for col in columns
    } if row_list else {col: len(col) for col in columns}

    lines: list[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in row_list:
        lines.append(
            "  ".join(row.get(col, "").ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def format_series(
    curves: Iterable[ProgressiveCurve],
    series: str = "recall",
    points: int = 12,
    title: str = "",
) -> str:
    """Render progressive curves side by side at shared budget checkpoints.

    Args:
        curves: the strategies to compare.
        series: which tracked series to print.
        points: number of budget checkpoints to sample.
        title: optional heading.
    """
    curve_list = list(curves)
    if not curve_list:
        return title
    max_budget = max((c.comparisons[-1] for c in curve_list if c.comparisons), default=0)
    budgets = sorted({round(max_budget * i / points) for i in range(1, points + 1)})
    rows = []
    for budget in budgets:
        row = {"budget": str(budget)}
        for curve in curve_list:
            row[curve.label] = f"{curve.value_at(budget, series):.3f}"
        rows.append(row)
    heading = title or f"{series} vs comparisons"
    return format_table(rows, title=heading, first_column="budget")


def format_progress_chart(
    curves: Iterable[ProgressiveCurve],
    series: str = "recall",
    width: int = 60,
    height: int = 12,
    title: str = "",
) -> str:
    """A terminal line chart of progressive curves (one glyph per curve).

    Args:
        curves: strategies to plot (first curve gets ``*``, then ``o``,
            ``+``, ``x``, …; overlapping points show the earlier glyph).
        series: which tracked series to plot (y is clamped to [0, 1]).
        width / height: chart resolution in characters.
        title: optional heading.
    """
    glyphs = "*o+x#@%&"
    curve_list = [c for c in curves if c.comparisons]
    if not curve_list:
        return title
    max_x = max(c.comparisons[-1] for c in curve_list)
    if max_x <= 0:
        return title
    grid = [[" "] * width for _ in range(height)]
    for index, curve in enumerate(curve_list):
        glyph = glyphs[index % len(glyphs)]
        for col in range(width):
            budget = round(col / (width - 1) * max_x) if width > 1 else max_x
            value = min(max(curve.value_at(budget, series), 0.0), 1.0)
            row = height - 1 - round(value * (height - 1))
            if grid[row][col] == " ":
                grid[row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.append("1.0 ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append("    │" + "".join(row))
    lines.append("0.0 ┤" + "".join(grid[-1]))
    lines.append("    └" + "─" * width)
    lines.append(f"     0 comparisons{'':>{max(width - 24, 1)}}{max_x}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {curve.label}"
        for i, curve in enumerate(curve_list)
    )
    lines.append("     " + legend)
    return "\n".join(lines)
