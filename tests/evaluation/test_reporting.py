"""Tests for ASCII reporting."""

from __future__ import annotations

from repro.evaluation.progressive import ProgressiveCurve
from repro.evaluation.reporting import format_series, format_table


class TestFormatTable:
    def test_columns_aligned(self):
        table = format_table(
            [
                {"method": "token", "PC": "0.95"},
                {"method": "attribute-clustering", "PC": "0.90"},
            ]
        )
        lines = table.splitlines()
        assert lines[0].startswith("method")
        assert len(lines) == 4  # header, rule, two rows

    def test_title_included(self):
        table = format_table([{"a": "1"}], title="E2")
        assert table.splitlines()[0] == "E2"

    def test_union_of_columns(self):
        table = format_table([{"a": "1"}, {"b": "2"}])
        header = table.splitlines()[0]
        assert "a" in header and "b" in header

    def test_first_column_forced(self):
        table = format_table([{"x": "1", "key": "k"}], first_column="key")
        assert table.splitlines()[0].startswith("key")

    def test_empty_rows(self):
        table = format_table([], title="empty")
        assert "empty" in table


class TestFormatSeries:
    def make_curve(self, label: str, speed: float) -> ProgressiveCurve:
        curve = ProgressiveCurve(label)
        for i in range(11):
            curve.record(i * 10, recall=min(1.0, i * speed))
        return curve

    def test_series_side_by_side(self):
        fast = self.make_curve("fast", 0.2)
        slow = self.make_curve("slow", 0.05)
        text = format_series([fast, slow], points=5)
        header = text.splitlines()[1]
        assert "fast" in header and "slow" in header and "budget" in header

    def test_values_reflect_curves(self):
        fast = self.make_curve("fast", 0.2)
        text = format_series([fast], points=2)
        assert "1.000" in text

    def test_empty_curve_list(self):
        assert format_series([], title="nothing") == "nothing"
