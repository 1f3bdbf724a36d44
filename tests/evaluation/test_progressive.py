"""Tests for progressive curves and AUC."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.evaluation.progressive import ProgressiveCurve, area_under_curve


class TestCurveRecording:
    def test_record_and_length(self):
        curve = ProgressiveCurve("s")
        curve.record(0, recall=0.0)
        curve.record(10, recall=0.5)
        assert len(curve) == 2

    def test_non_decreasing_comparisons_enforced(self):
        curve = ProgressiveCurve()
        curve.record(10, recall=0.1)
        with pytest.raises(ValueError):
            curve.record(5, recall=0.2)

    def test_missing_series_carries_forward(self):
        curve = ProgressiveCurve()
        curve.record(0, recall=0.1, benefit=1.0)
        curve.record(10, recall=0.2)  # benefit carried forward
        assert curve.series["benefit"] == [1.0, 1.0]

    def test_new_series_backfilled_with_zero(self):
        curve = ProgressiveCurve()
        curve.record(0, recall=0.1)
        curve.record(10, recall=0.2, benefit=3.0)
        assert curve.series["benefit"] == [0.0, 3.0]


class TestValueAt:
    def curve(self) -> ProgressiveCurve:
        curve = ProgressiveCurve()
        curve.record(0, recall=0.0)
        curve.record(10, recall=0.4)
        curve.record(20, recall=0.8)
        return curve

    def test_step_interpolation(self):
        curve = self.curve()
        assert curve.value_at(0) == 0.0
        assert curve.value_at(9) == 0.0
        assert curve.value_at(10) == 0.4
        assert curve.value_at(15) == 0.4
        assert curve.value_at(100) == 0.8

    def test_before_first_checkpoint(self):
        curve = ProgressiveCurve()
        curve.record(10, recall=0.5)
        assert curve.value_at(5) == 0.0

    def test_unknown_series(self):
        assert self.curve().value_at(10, "nope") == 0.0

    def test_final(self):
        assert self.curve().final() == 0.8
        assert ProgressiveCurve().final() == 0.0


class TestAuc:
    def test_perfect_curve(self):
        # Recall 1.0 from the start.
        assert area_under_curve([0, 10], [1.0, 1.0]) == pytest.approx(1.0)

    def test_late_curve_scores_lower(self):
        early = area_under_curve([0, 1, 10], [0.0, 1.0, 1.0])
        late = area_under_curve([0, 9, 10], [0.0, 1.0, 1.0])
        assert early > late

    def test_explicit_budget_normalization(self):
        auc = area_under_curve([0, 5], [0.0, 1.0], max_x=10)
        assert auc == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            area_under_curve([0, 1], [0.0])

    def test_empty(self):
        assert area_under_curve([], []) == 0.0

    def test_curve_auc_method(self):
        curve = ProgressiveCurve()
        curve.record(0, recall=0.0)
        curve.record(10, recall=1.0)
        curve.record(20, recall=1.0)
        assert curve.auc() == pytest.approx(0.5)

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.floats(0, 1)),
            min_size=1,
            max_size=20,
        )
    )
    def test_auc_bounded(self, points):
        points.sort()
        xs = [p[0] for p in points]
        ys = sorted(p[1] for p in points)  # non-decreasing recall
        auc = area_under_curve(xs, ys)
        assert 0.0 <= auc <= 1.0 + 1e-9
