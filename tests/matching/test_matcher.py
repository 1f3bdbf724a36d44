"""Tests for matchers and the match graph."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.matcher import (
    MatchDecision,
    MatchGraph,
    OracleMatcher,
    ThresholdMatcher,
)
from repro.matching.similarity import SimilarityIndex
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def index() -> SimilarityIndex:
    collection = EntityCollection(
        [
            EntityDescription("http://e/a1", {"name": ["green fork cafe"]}),
            EntityDescription("http://e/a2", {"name": ["green fork cafe "]}),
            EntityDescription("http://e/b", {"name": ["blue anchor oyster"]}),
        ],
        name="kb",
    )
    return SimilarityIndex([collection])


class TestThresholdMatcher:
    def test_match_above_threshold(self):
        # Token sets are {green, fork, cafe, a1} vs {green, fork, cafe, a2}
        # (URI infixes contribute), so Jaccard is 3/5.
        matcher = ThresholdMatcher(index(), threshold=0.5, measure="jaccard")
        decision = matcher.decide("http://e/a1", "http://e/a2")
        assert decision.is_match
        assert decision.similarity == pytest.approx(0.6)

    def test_non_match_below_threshold(self):
        matcher = ThresholdMatcher(index(), threshold=0.5, measure="jaccard")
        decision = matcher.decide("http://e/a1", "http://e/b")
        assert not decision.is_match

    def test_measure_selection(self):
        for measure in ("jaccard", "weighted-jaccard", "cosine"):
            matcher = ThresholdMatcher(index(), measure=measure)
            assert matcher.measure_name == measure

    def test_callable_measure(self):
        matcher = ThresholdMatcher(index(), threshold=0.5, measure=lambda a, b: 0.7)
        assert matcher.decide("http://e/a1", "http://e/b").is_match

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            ThresholdMatcher(index(), measure="soundex")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdMatcher(index(), threshold=1.5)


class TestOracleMatcher:
    def test_uses_gold(self):
        oracle = OracleMatcher({("a", "b")})
        assert oracle.decide("b", "a").is_match
        assert not oracle.decide("a", "c").is_match


class TestMatchGraph:
    def test_record_and_lookup(self):
        graph = MatchGraph()
        decision = MatchDecision("a", "b", 0.9, True)
        assert graph.record(decision) is True
        assert ("a", "b") in graph
        assert graph.decision_for("b", "a") == decision

    def test_duplicate_record_ignored(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 0.9, True))
        assert graph.record(MatchDecision("b", "a", 0.1, False)) is False
        assert graph.match_count == 1

    def test_negative_decisions_tracked_but_not_matched(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 0.1, False))
        assert len(graph) == 1
        assert graph.match_count == 0
        assert not graph.are_matched("a", "b")

    def test_transitive_clustering(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 1.0, True))
        graph.record(MatchDecision("b", "c", 1.0, True))
        assert graph.are_matched("a", "c")
        assert graph.cluster_of("a") == frozenset({"a", "b", "c"})

    def test_partners_direct_only(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 1.0, True))
        graph.record(MatchDecision("b", "c", 1.0, True))
        assert graph.partners("b") == {"a", "c"}
        assert graph.partners("a") == {"b"}
        assert graph.partners("ghost") == set()

    def test_is_resolved(self):
        graph = MatchGraph()
        assert not graph.is_resolved("a")
        graph.record(MatchDecision("a", "b", 1.0, True))
        assert graph.is_resolved("a")
        assert graph.is_resolved("b")
        assert not graph.is_resolved("c")

    def test_clusters_non_singleton(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 1.0, True))
        graph.record(MatchDecision("x", "y", 0.2, False))
        clusters = graph.clusters()
        assert clusters == [frozenset({"a", "b"})]

    def test_cluster_of_unmatched_is_singleton(self):
        graph = MatchGraph()
        assert graph.cluster_of("solo") == frozenset({"solo"})

    def test_transitive_pairs(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 1.0, True))
        graph.record(MatchDecision("b", "c", 1.0, True))
        assert graph.transitive_pairs() == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_matched_pairs_direct(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 1.0, True))
        graph.record(MatchDecision("b", "c", 1.0, True))
        assert graph.matched_pairs() == {("a", "b"), ("b", "c")}

    def test_decisions_keep_their_recorded_orientation(self):
        graph = MatchGraph()
        graph.record(MatchDecision("y", "x", 0.25, False))
        graph.record(MatchDecision("a", "b", 1.0, True))
        assert list(graph.decisions()) == [
            MatchDecision("y", "x", 0.25, False),
            MatchDecision("a", "b", 1.0, True),
        ]
        assert graph.matched_pairs() == {("a", "b")}

    def test_self_comparison_rejected(self):
        with pytest.raises(ValueError):
            MatchGraph().record(MatchDecision("a", "a", 1.0, True))

    def test_forget_drops_decisions_and_reclusters(self):
        graph = MatchGraph()
        graph.record(MatchDecision("a", "b", 1.0, True))
        graph.record(MatchDecision("b", "c", 1.0, True))
        graph.record(MatchDecision("c", "d", 0.1, False))
        graph.record(MatchDecision("x", "y", 1.0, True))
        graph.forget(graph.interner.id_of("b"))
        assert [d.pair for d in graph.decisions()] == [("c", "d"), ("x", "y")]
        assert not graph.are_matched("a", "c")
        assert graph.partners("a") == set() and not graph.is_resolved("c")
        assert graph.clusters() == [frozenset({"x", "y"})]
        assert graph.match_count == 1 and ("a", "b") not in graph

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()).filter(
                    lambda step: step[0] != step[1]
                ),
                st.integers(0, 7),  # forget this node
            ),
            max_size=40,
        )
    )
    def test_forget_equals_recording_only_the_survivors(self, steps):
        graph, survivors = MatchGraph(), []
        for step in steps:
            if isinstance(step, int):
                node = f"n{step}"
                if graph.interner.get(node) >= 0:
                    graph.forget(graph.interner.id_of(node))
                survivors = [d for d in survivors if node not in d.pair]
            else:
                decision = MatchDecision(f"n{step[0]}", f"n{step[1]}", 0.5, step[2])
                if graph.record(decision):
                    survivors.append(decision)
        fresh = MatchGraph()
        for decision in survivors:
            fresh.record(decision)
        assert list(graph.decisions()) == survivors
        assert graph.clusters() == fresh.clusters()
        assert graph.match_count == fresh.match_count and len(graph) == len(fresh)
        nodes = [f"n{i}" for i in range(8)]
        for x in nodes:
            assert graph.partners(x) == fresh.partners(x)
            for y in nodes:
                assert graph.are_matched(x, y) == fresh.are_matched(x, y)
        # The rows and the decision columns hold the survivors, in order.
        uris = graph.uris
        assert [
            (uris[graph.a[row]], uris[graph.b[row]], graph.score[row], graph.is_match[row])
            for row in graph.rows.values()
        ] == [(d.left, d.right, d.similarity, d.is_match) for d in survivors]
        assert len(graph.a) <= 2 * len(graph.rows)
        # Forgetting any node drops exactly its decisions: recording the
        # survivors again adds just those, after the rest.
        for node in nodes:
            if graph.interner.get(node) < 0:
                continue
            graph.forget(graph.interner.id_of(node))
            kept = [d for d in survivors if node not in d.pair]
            assert list(graph.decisions()) == kept
            assert [graph.record(d) for d in survivors] == [node in d.pair for d in survivors]
            survivors = kept + [d for d in survivors if node in d.pair]
            assert list(graph.decisions()) == survivors
            assert graph.match_count == sum(d.is_match for d in survivors)
        assert graph.clusters() == fresh.clusters()

    def test_matches_in_execution_order(self):
        graph = MatchGraph()
        graph.record(MatchDecision("x", "y", 1.0, True))
        graph.record(MatchDecision("a", "b", 1.0, True))
        assert [d.pair for d in graph.matches()] == [("x", "y"), ("a", "b")]
