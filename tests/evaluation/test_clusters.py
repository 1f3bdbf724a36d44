"""Tests for B-cubed evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.evaluation.clusters import BCubedScore, bcubed


def fs(*items):
    return frozenset(items)


class TestBCubed:
    def test_perfect_clustering(self):
        clusters = [fs("a", "b"), fs("x", "y", "z")]
        score = bcubed(clusters, clusters)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f1 == 1.0

    def test_over_merging_hurts_precision(self):
        gold = [fs("a", "b"), fs("x", "y")]
        predicted = [fs("a", "b", "x", "y")]
        score = bcubed(predicted, gold)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == 1.0

    def test_over_splitting_hurts_recall(self):
        gold = [fs("a", "b", "x", "y")]
        predicted = [fs("a", "b"), fs("x", "y")]
        score = bcubed(predicted, gold)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(0.5)

    def test_missing_items_treated_as_singletons(self):
        gold = [fs("a", "b")]
        predicted = []  # resolver found nothing
        score = bcubed(predicted, gold)
        assert score.precision == 1.0  # singleton predictions are "pure"
        assert score.recall == pytest.approx(0.5)

    def test_universe_extends_average(self):
        gold = [fs("a", "b")]
        predicted = [fs("a", "b")]
        with_extra = bcubed(predicted, gold, universe=["a", "b", "solo"])
        assert with_extra.precision == 1.0
        assert with_extra.recall == 1.0  # solo is a singleton in both

    def test_empty_everything(self):
        score = bcubed([], [])
        assert score.precision == 0.0
        assert score.f1 == 0.0

    def test_known_textbook_value(self):
        # Amigó et al. style check: one wrong assignment in a 3-cluster.
        gold = [fs("a", "b", "c"), fs("d")]
        predicted = [fs("a", "b", "d"), fs("c")]
        score = bcubed(predicted, gold)
        # precision: a=2/3, b=2/3, d=1/3, c=1 -> (2/3+2/3+1/3+1)/4 = 2/3
        assert score.precision == pytest.approx(2 / 3)
        # recall: a=2/3, b=2/3, c=1/3, d=1 -> 2/3
        assert score.recall == pytest.approx(2 / 3)

    @given(
        st.lists(
            st.lists(st.integers(0, 30), min_size=1, max_size=5),
            max_size=8,
        )
    )
    def test_self_score_is_perfect(self, raw_clusters):
        # Deduplicate membership to make a valid partition.
        seen: set[int] = set()
        clusters = []
        for raw in raw_clusters:
            members = frozenset(str(i) for i in raw if i not in seen)
            seen.update(int(m) for m in members)
            if members:
                clusters.append(members)
        score = bcubed(clusters, clusters)
        if clusters:
            assert score.precision == pytest.approx(1.0)
            assert score.recall == pytest.approx(1.0)

    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=30),
        st.lists(st.integers(0, 15), min_size=1, max_size=30),
    )
    def test_bounds(self, a_labels, b_labels):
        size = min(len(a_labels), len(b_labels))

        def partition(labels):
            groups: dict[int, set[str]] = {}
            for item, label in enumerate(labels[:size]):
                groups.setdefault(label, set()).add(str(item))
            return [frozenset(g) for g in groups.values()]

        score = bcubed(partition(a_labels), partition(b_labels))
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0
        assert 0.0 <= score.f1 <= 1.0

    def test_no_gold_clusters(self):
        score = bcubed([fs("a", "b")], [])
        assert score.precision == pytest.approx(0.5)
        assert score.recall == 1.0

    def test_partial_overlap_value(self):
        # a, b: p=1, r=2/3; c (unpredicted singleton): p=1, r=1/3.
        score = bcubed([fs("a", "b")], [fs("a", "b", "c")])
        assert score.precision == 1.0
        assert score.recall == pytest.approx(5 / 9)

    def test_superset_cluster_value(self):
        # a, b, c: p=3/4; d: p=1/4; every recall is 1.
        score = bcubed([fs("a", "b", "c", "d")], [fs("a", "b", "c")])
        assert score.precision == pytest.approx(10 / 16)
        assert score.recall == 1.0

    def test_universe_restricts_average(self):
        gold = [fs("a", "b"), fs("x", "y")]
        predicted = [fs("a", "b", "x", "y")]
        score = bcubed(predicted, gold, universe=["a", "b"])
        assert score.precision == pytest.approx(0.5)
        assert score.recall == 1.0

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=20),
        st.lists(st.integers(0, 6), min_size=1, max_size=20),
    )
    def test_swapping_sides_swaps_precision_and_recall(self, a_labels, b_labels):
        size = min(len(a_labels), len(b_labels))

        def partition(labels):
            groups: dict[int, set[str]] = {}
            for item, label in enumerate(labels[:size]):
                groups.setdefault(label, set()).add(str(item))
            return [frozenset(g) for g in groups.values()]

        forward = bcubed(partition(a_labels), partition(b_labels))
        backward = bcubed(partition(b_labels), partition(a_labels))
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)


class TestBCubedScore:
    def test_f1_is_the_harmonic_mean(self):
        assert BCubedScore(0.5, 1.0).f1 == pytest.approx(2 / 3)

    def test_f1_of_zero_scores(self):
        assert BCubedScore(0.0, 0.0).f1 == 0.0

    def test_as_row(self):
        assert BCubedScore(0.5, 1.0).as_row() == {
            "B3 precision": "0.500",
            "B3 recall": "1.000",
            "B3 F1": "0.667",
        }
