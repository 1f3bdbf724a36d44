"""Tests for matchers and the match graph."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.matcher import MatchGraph, OracleMatcher, ThresholdMatcher
from repro.matching.similarity import SimilarityIndex
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.interner import pack_pair

from core.id_views import clusters, decisions, partners


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


def record(graph: MatchGraph, left: str, right: str, score: float, is_match: bool) -> bool:
    """Record a decision on two URIs, interned at the test's edge."""
    intern = graph.interner.intern
    return graph.record_ids(intern(left), intern(right), score, is_match)


def are_matched(graph: MatchGraph, left: str, right: str) -> bool:
    return graph.are_matched_ids(graph.interner.get(left), graph.interner.get(right))


class TestMatchGraph:
    def test_record_and_lookup(self):
        graph = MatchGraph()
        assert record(graph, "a", "b", 0.9, True) is True
        assert pack_pair(*graph.interner.ids_of(["b", "a"])) in graph.rows
        assert decisions(graph) == [("a", "b", 0.9, True)]

    def test_duplicate_record_ignored(self):
        graph = MatchGraph()
        record(graph, "a", "b", 0.9, True)
        assert record(graph, "b", "a", 0.1, False) is False
        assert graph.match_count == 1

    def test_negative_decisions_tracked_but_not_matched(self):
        graph = MatchGraph()
        record(graph, "a", "b", 0.1, False)
        assert len(graph.rows) == 1
        assert graph.match_count == 0
        assert not are_matched(graph, "a", "b")

    def test_transitive_clustering(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "b", "c", 1.0, True)
        assert are_matched(graph, "a", "c")
        assert clusters(graph) == [["a", "b", "c"]]

    def test_is_resolved(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "c", "d", 0.2, False)
        resolved = {graph.uris[i] for i in graph.partner_ids}
        assert resolved == {"a", "b"}  # a non-match resolves neither side

    def test_cluster_of_unmatched_is_singleton(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        solo = graph.interner.intern("solo")  # interned after the last union
        assert graph.roots([solo]) == []
        assert not graph.are_matched_ids(solo, solo)
        assert not are_matched(graph, "a", "solo")

    def test_transitive_pairs(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "b", "c", 1.0, True)
        record(graph, "c", "d", 0.1, False)
        nodes = "abcd"
        transitive = {(x, y) for x in nodes for y in nodes if x < y and are_matched(graph, x, y)}
        assert transitive == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_union_relabels_the_smaller_cluster(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "b", "c", 1.0, True)
        record(graph, "x", "y", 1.0, True)
        (big,) = set(graph.roots(graph.interner.ids_of("abc")))
        record(graph, "y", "a", 1.0, True)
        assert set(graph.roots(graph.interner.ids_of("abcxy"))) == {big}
        assert clusters(graph) == [["a", "b", "c", "x", "y"]]

    def test_partners_direct_only(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "b", "c", 1.0, True)
        assert partners(graph, "b") == {"a", "c"}
        assert partners(graph, "a") == {"b"}
        assert partners(graph, "ghost") == set()

    def test_roots_skip_unresolved_ids(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "x", "y", 0.2, False)
        a, b, x, y = graph.interner.ids_of("abxy")
        assert graph.roots([x, a, y, b]) == [graph.roots([a])[0]] * 2
        assert clusters(graph) == [["a", "b"]]

    def test_matched_pairs_direct(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "b", "c", 1.0, True)
        assert graph.matched_pairs() == {("a", "b"), ("b", "c")}

    def test_decisions_keep_their_recorded_orientation(self):
        graph = MatchGraph()
        record(graph, "y", "x", 0.25, False)
        record(graph, "a", "b", 1.0, True)
        assert decisions(graph) == [("y", "x", 0.25, False), ("a", "b", 1.0, True)]
        assert graph.matched_pairs() == {("a", "b")}

    def test_matches_in_execution_order(self):
        graph = MatchGraph()
        record(graph, "x", "y", 1.0, True)
        record(graph, "c", "d", 0.1, False)
        record(graph, "a", "b", 1.0, True)
        assert [d[:2] for d in decisions(graph) if d[3]] == [("x", "y"), ("a", "b")]
        assert graph.match_count == 2

    def test_forget_drops_decisions_and_reclusters(self):
        graph = MatchGraph()
        record(graph, "a", "b", 1.0, True)
        record(graph, "b", "c", 1.0, True)
        record(graph, "c", "d", 0.1, False)
        record(graph, "x", "y", 1.0, True)
        graph.forget(graph.interner.id_of("b"))
        assert [d[:2] for d in decisions(graph)] == [("c", "d"), ("x", "y")]
        assert not are_matched(graph, "a", "c")
        assert partners(graph, "a") == set() and graph.interner.id_of("c") not in graph.partner_ids
        assert clusters(graph) == [["x", "y"]]
        assert graph.match_count == 1 and len(graph.rows) == 2

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
                survivors = [d for d in survivors if node not in d[:2]]
            else:
                decision = (f"n{step[0]}", f"n{step[1]}", 0.5, step[2])
                if record(graph, *decision):
                    survivors.append(decision)
        fresh = MatchGraph()
        for decision in survivors:
            record(fresh, *decision)
        # The rows and the decision columns hold the survivors, in order.
        assert decisions(graph) == survivors
        assert clusters(graph) == clusters(fresh)
        assert graph.match_count == fresh.match_count and len(graph.rows) == len(fresh.rows)
        nodes = [f"n{i}" for i in range(8)]
        for x in nodes:
            assert partners(graph, x) == partners(fresh, x)
            for y in nodes:
                assert are_matched(graph, x, y) == are_matched(fresh, x, y)
        assert len(graph.a) <= 2 * len(graph.rows)
        # Forgetting any node drops exactly its decisions: recording the
        # survivors again adds just those, after the rest.
        for node in nodes:
            if graph.interner.get(node) < 0:
                continue
            graph.forget(graph.interner.id_of(node))
            kept = [d for d in survivors if node not in d[:2]]
            assert decisions(graph) == kept
            assert [record(graph, *d) for d in survivors] == [node in d[:2] for d in survivors]
            survivors = kept + [d for d in survivors if node in d[:2]]
            assert decisions(graph) == survivors
            assert graph.match_count == sum(d[3] for d in survivors)
        assert clusters(graph) == clusters(fresh)
