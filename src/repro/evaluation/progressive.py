"""Progressive-ER instrumentation: benefit as a function of consumed budget.

A progressive resolver is judged not by its final quality but by how fast
quality accumulates: the curve of recall (or of one of MinoanER's quality
benefits) against comparisons executed, and the normalized area under it —
1.0 would mean every gold match was found before any non-match was tried.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass
class ProgressiveCurve:
    """One strategy's progress trace.

    Points are appended in execution order; ``comparisons`` must be
    non-decreasing.  Any number of named series can be tracked (recall,
    attribute completeness, …).
    """

    label: str = "strategy"
    comparisons: list[int] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)

    def record(self, comparisons: int, **values: float) -> None:
        """Append one checkpoint.

        Raises:
            ValueError: if *comparisons* decreases or series diverge.
        """
        if self.comparisons and comparisons < self.comparisons[-1]:
            raise ValueError("comparisons must be non-decreasing")
        self.comparisons.append(comparisons)
        for name in values:
            if name not in self.series:
                # A series appearing late is backfilled with zeros for the
                # checkpoints recorded before it existed.
                self.series[name] = [0.0] * (len(self.comparisons) - 1)
        for name in self.series:
            if name in values:
                self.series[name].append(values[name])
            else:
                previous = self.series[name]
                previous.append(previous[-1] if previous else 0.0)
        lengths = {len(points) for points in self.series.values()}
        if lengths and lengths != {len(self.comparisons)}:
            raise ValueError("series out of sync with checkpoints")

    def __len__(self) -> int:
        return len(self.comparisons)

    def value_at(self, budget: int, series: str = "recall") -> float:
        """Series value after *budget* comparisons (step interpolation)."""
        points = self.series.get(series, [])
        if not points:
            return 0.0
        index = bisect_right(self.comparisons, budget) - 1
        if index < 0:
            return 0.0
        return points[index]

    def final(self, series: str = "recall") -> float:
        """Last recorded value of *series*."""
        points = self.series.get(series, [])
        return points[-1] if points else 0.0

    def auc(self, series: str = "recall", max_comparisons: int | None = None) -> float:
        """Normalized area under the step curve of *series*.

        Args:
            max_comparisons: normalize over this budget (defaults to the
                last recorded checkpoint).  The result is in [0, 1]: the
                mean series value over the budget.
        """
        return area_under_curve(
            self.comparisons, self.series.get(series, []), max_comparisons
        )


def area_under_curve(
    x: list[int],
    y: list[float],
    max_x: int | None = None,
) -> float:
    """Normalized area under a non-decreasing step curve.

    The curve holds each value until the next checkpoint; the area is
    normalized by the total span so a perfect resolver scores close to 1.

    Raises:
        ValueError: if *x* and *y* differ in length.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if not x:
        return 0.0
    span = max_x if max_x is not None else x[-1]
    if span <= 0:
        return 0.0
    area = 0.0
    for i in range(len(x)):
        start = x[i]
        if start >= span:
            break
        end = min(x[i + 1], span) if i + 1 < len(x) else span
        if end > start:
            area += y[i] * (end - start)
    # The stretch before the first checkpoint contributes zero.
    return area / span
