"""Tests for the neighbour-evidence-aware matcher."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.baselines.ordered import run_ordered
from repro.core.engine import ProgressiveER, ResolutionContext
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.updater import NeighborEvidencePropagator
from repro.matching.matcher import MatchDecision, Matcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.stream.resolver import StreamResolver


class StubMatcher(Matcher):
    """Fixed value-similarity matrix for testing."""

    def __init__(self, scores: dict[tuple[str, str], float], threshold: float = 0.5):
        self.scores = scores
        self.threshold = threshold
        self.bound_context = None

    def bind(self, context) -> None:
        self.bound_context = context

    def similarity(self, uri_a: str, uri_b: str) -> float:
        key = (uri_a, uri_b) if (uri_a, uri_b) in self.scores else (uri_b, uri_a)
        return self.scores.get(key, 0.0)

    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        score = self.similarity(uri_a, uri_b)
        return MatchDecision(uri_a, uri_b, score, score >= self.threshold)


def film_context() -> ResolutionContext:
    kb1 = EntityCollection(
        [
            EntityDescription("a_film", {"director": ["http://x/a_dir"]}, source="kb1"),
            EntityDescription("http://x/a_dir", {"n": ["d"]}, source="kb1"),
        ],
        name="kb1",
    )
    kb2 = EntityCollection(
        [
            EntityDescription("b_film", {"maker": ["http://y/b_dir"]}, source="kb2"),
            EntityDescription("http://y/b_dir", {"n": ["d"]}, source="kb2"),
        ],
        name="kb2",
    )
    return ResolutionContext([kb1, kb2])


class TestUnbound:
    def test_behaves_like_base(self):
        base = StubMatcher({("a", "b"): 0.6})
        matcher = NeighborAwareMatcher(base, evidence_weight=0.5)
        assert matcher.similarity("a", "b") == 0.6
        assert matcher.decide("a", "b").is_match

    def test_threshold_inherited(self):
        base = StubMatcher({}, threshold=0.7)
        assert NeighborAwareMatcher(base).threshold == 0.7

    def test_threshold_override(self):
        base = StubMatcher({}, threshold=0.7)
        assert NeighborAwareMatcher(base, threshold=0.2).threshold == 0.2

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            NeighborAwareMatcher(StubMatcher({}), evidence_weight=-1)

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            NeighborAwareMatcher(StubMatcher({}), min_value_similarity=-0.1)


class TestEvidence:
    def test_bind_propagates_to_base(self):
        base = StubMatcher({})
        matcher = NeighborAwareMatcher(base)
        context = film_context()
        matcher.bind(context)
        assert base.bound_context is context

    def test_no_evidence_before_any_match(self):
        matcher = NeighborAwareMatcher(StubMatcher({}))
        matcher.bind(film_context())
        assert matcher.neighbor_evidence("a_film", "b_film") == 0.0

    def test_matched_neighbors_raise_score(self):
        context = film_context()
        base = StubMatcher({("a_film", "b_film"): 0.1}, threshold=0.3)
        matcher = NeighborAwareMatcher(base, evidence_weight=0.3)
        matcher.bind(context)
        # The films fail on value alone.
        assert not matcher.decide("a_film", "b_film").is_match
        # Their directors get matched...
        context.match_graph.record(
            MatchDecision("http://x/a_dir", "http://y/b_dir", 1.0, True)
        )
        # ...and now the films pass: 0.1 + 0.3 * 1.0 = 0.4 >= 0.3.
        decision = matcher.decide("a_film", "b_film")
        assert decision.is_match
        assert decision.similarity == pytest.approx(0.4)

    def test_zero_value_similarity_never_matches(self):
        context = film_context()
        base = StubMatcher({}, threshold=0.2)  # all value scores 0
        matcher = NeighborAwareMatcher(base, evidence_weight=1.0)
        matcher.bind(context)
        context.match_graph.record(
            MatchDecision("http://x/a_dir", "http://y/b_dir", 1.0, True)
        )
        # Full neighbour evidence, but no value support: rejected.
        decision = matcher.decide("a_film", "b_film")
        assert decision.similarity >= 0.2
        assert not decision.is_match

    def test_transitive_neighbor_matches_count(self):
        context = film_context()
        base = StubMatcher({("a_film", "b_film"): 0.1}, threshold=0.3)
        matcher = NeighborAwareMatcher(base, evidence_weight=0.3)
        matcher.bind(context)
        # Directors matched transitively through a third description.
        context.match_graph.record(MatchDecision("http://x/a_dir", "z", 1.0, True))
        context.match_graph.record(MatchDecision("z", "http://y/b_dir", 1.0, True))
        assert matcher.neighbor_evidence("a_film", "b_film") == 1.0

    def test_zero_weight_disables_evidence(self):
        context = film_context()
        base = StubMatcher({("a_film", "b_film"): 0.1}, threshold=0.3)
        matcher = NeighborAwareMatcher(base, evidence_weight=0.0)
        matcher.bind(context)
        context.match_graph.record(
            MatchDecision("http://x/a_dir", "http://y/b_dir", 1.0, True)
        )
        assert not matcher.decide("a_film", "b_film").is_match

    def test_inverse_neighbors_contribute(self):
        context = film_context()
        base = StubMatcher(
            {("http://x/a_dir", "http://y/b_dir"): 0.1}, threshold=0.3
        )
        matcher = NeighborAwareMatcher(base, evidence_weight=0.3)
        matcher.bind(context)
        # The films (which *reference* the directors) are matched.
        context.match_graph.record(MatchDecision("a_film", "b_film", 1.0, True))
        decision = matcher.decide("http://x/a_dir", "http://y/b_dir")
        assert decision.is_match


def star_context(spokes: dict[str, list[str]]) -> ResolutionContext:
    """One KB: every hub in *spokes* references its listed neighbours."""
    members = {uri for targets in spokes.values() for uri in targets}
    descriptions = [
        EntityDescription(hub, {"rel": targets}) for hub, targets in spokes.items()
    ] + [EntityDescription(uri, {"n": ["v"]}) for uri in sorted(members)]
    return ResolutionContext([EntityCollection(descriptions)])


class TestEvidenceIsAFraction:
    """The evidence is symmetric and never exceeds 1."""

    def bound(self, context: ResolutionContext) -> NeighborAwareMatcher:
        matcher = NeighborAwareMatcher(StubMatcher({}))
        matcher.bind(context)
        return matcher

    def test_two_members_of_one_cluster_count_once_for_the_smaller_side(self):
        # x -> {a1, a2}, y -> {b1}; a1 ~ b1 and a2 ~ b1: two members of
        # N(x) are matched into N(y), but N(y) has one member to match.
        context = star_context(
            {"http://h/x": ["http://n/a1", "http://n/a2"], "http://h/y": ["http://n/b1"]}
        )
        matcher = self.bound(context)
        for left in ("http://n/a1", "http://n/a2"):
            context.match_graph.record(MatchDecision(left, "http://n/b1", 1.0, True))
        assert matcher.neighbor_evidence("http://h/x", "http://h/y") == 1.0
        assert matcher.neighbor_evidence("http://h/y", "http://h/x") == 1.0

    def test_partial_overlap_is_the_smaller_directed_count(self):
        context = star_context(
            {
                "http://h/x": ["http://n/a1", "http://n/a2", "http://n/a3"],
                "http://h/y": ["http://n/b1", "http://n/b2"],
            }
        )
        matcher = self.bound(context)
        graph = context.match_graph
        graph.record(MatchDecision("http://n/a1", "http://n/b1", 1.0, True))
        graph.record(MatchDecision("http://n/a2", "http://n/b1", 1.0, True))
        graph.record(MatchDecision("http://n/a3", "http://n/zz", 1.0, True))
        # 2 of N(x) reach N(y), 1 of N(y) reaches N(x); min(2, 1) / min(3, 2).
        assert matcher.neighbor_evidence("http://h/x", "http://h/y") == 0.5
        assert matcher.neighbor_evidence("http://h/y", "http://h/x") == 0.5

    def test_shared_resolved_neighbour_counts(self):
        context = star_context(
            {"http://h/x": ["http://n/c"], "http://h/y": ["http://n/c"]}
        )
        matcher = self.bound(context)
        assert matcher.neighbor_evidence("http://h/x", "http://h/y") == 0.0
        context.match_graph.record(MatchDecision("http://n/c", "http://n/d", 1.0, True))
        assert matcher.neighbor_evidence("http://h/x", "http://h/y") == 1.0

    def test_resolved_neighbours_on_one_side_only(self):
        context = star_context(
            {"http://h/x": ["http://n/a1"], "http://h/y": ["http://n/b1"]}
        )
        matcher = self.bound(context)
        context.match_graph.record(MatchDecision("http://n/a1", "http://n/q", 1.0, True))
        assert matcher.neighbor_evidence("http://h/x", "http://h/y") == 0.0
        assert matcher.neighbor_evidence("http://h/y", "http://h/x") == 0.0

    @given(
        matches=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
            max_size=8,
        ),
        spokes_x=st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        spokes_y=st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    )
    def test_bounded_and_symmetric(self, matches, spokes_x, spokes_y):
        context = star_context(
            {
                "http://h/x": [f"http://n/{i}" for i in spokes_x],
                "http://h/y": [f"http://n/{i}" for i in spokes_y],
            }
        )
        matcher = self.bound(context)
        for a, b in matches:
            context.match_graph.record(
                MatchDecision(f"http://n/{a}", f"http://n/{b}", 1.0, True)
            )
        forward = matcher.neighbor_evidence("http://h/x", "http://h/y")
        assert 0.0 <= forward <= 1.0
        assert forward == matcher.neighbor_evidence("http://h/y", "http://h/x")


class TestThroughTheLoops:
    """A matcher whose ``bind`` skips ``super`` is still served by the id
    adapter, alone or as the base of a neighbour-aware matcher."""

    DIRECTORS = ("http://x/a_dir", "http://y/b_dir")
    FILMS = ("a_film", "b_film")

    def stub(self) -> StubMatcher:
        return StubMatcher({self.DIRECTORS: 1.0, self.FILMS: 0.1}, threshold=0.3)

    @staticmethod
    def decisions(result) -> list[tuple[str, str, float, bool]]:
        return [(d.left, d.right, d.similarity, d.is_match) for d in result.match_graph.decisions()]

    def test_a_bind_overriding_matcher_through_progressive_er(self):
        stub = self.stub()
        edges = [WeightedEdge(*self.DIRECTORS, 2.0), WeightedEdge(*self.FILMS, 1.0)]
        result = ProgressiveER(stub).run(edges, film_context().collections)
        assert stub.bound_context is not None
        assert sorted(self.decisions(result)) == [
            (*self.FILMS, 0.1, False), (*self.DIRECTORS, 1.0, True)
        ]

    def test_neighbor_aware_over_it_through_progressive_er(self):
        stub = self.stub()
        matcher = NeighborAwareMatcher(stub, evidence_weight=0.3)
        edges = [WeightedEdge(*self.DIRECTORS, 2.0), WeightedEdge(*self.FILMS, 1.0)]
        result = ProgressiveER(matcher, updater=NeighborEvidencePropagator()).run(
            edges, film_context().collections
        )
        assert stub.bound_context is matcher._context is not None
        assert result.match_graph.matched_pairs() == {self.DIRECTORS, self.FILMS}

    def test_neighbor_aware_over_it_through_run_ordered(self):
        matcher = NeighborAwareMatcher(self.stub(), evidence_weight=0.3)
        result = run_ordered([self.DIRECTORS, self.FILMS], matcher, film_context().collections)
        assert self.decisions(result) == [
            (*self.DIRECTORS, 1.0, True), (*self.FILMS, pytest.approx(0.4), True)
        ]

    def test_a_bind_overriding_matcher_through_the_stream_loop(self):
        stub = StubMatcher({("http://a/x", "http://b/y"): 0.9})
        resolver = StreamResolver(clean_clean=True, matcher=stub)
        resolver.ingest(EntityDescription("http://a/x", {"p": ["alpha beta"]}), 0)
        result = resolver.resolve(EntityDescription("http://b/y", {"p": ["alpha beta"]}), source=1)
        assert stub.bound_context is resolver.context
        assert [(m.uri, m.similarity) for m in result.matches] == [("http://a/x", 0.9)]
