"""Differential test: the delta update phase against the full sweep.

``progressive_oracle.py`` is the loop as it ran before — a refresh of
every queued pair around each match, a ``heappush`` per edge, fresh
neighbourhood copies per decision, pairwise evidence.  Both loops get the
same generated corpus, edges, value scores and configuration and must
agree on everything observable: each pop with its priority, each
decision, every counter and every curve point, float for float.

The corpora are small on purpose (≤ 6 descriptions per KB, dense
relationships, five value scores, four edge weights two of which differ
in the last bit), so ties, re-estimates that change the order, boosts,
discoveries and neighbourhoods holding two members of one cluster are
all common.  Two-KB corpora may describe one URI in *both* KBs: it is
read as a neighbour in the second KB but lists only its home KB's
neighbours.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benefit import BENEFITS
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.session import ProgressiveSession
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.matching.matcher import MatchDecision, Matcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

from .id_views import decisions, pair_of, queued
from .progressive_oracle import CopyingPropagator, PairwiseEvidenceMatcher, SweepSession

SHARED = "http://s/shared"
SCORES = [0.0, 0.2, 0.45, 0.6, 0.9]
WEIGHTS = [0.5, 1.0, 1.0000000000000002, 2.0]


class TableMatcher(Matcher):
    """Value similarity from a fixed table (0.0 for unlisted pairs)."""

    threshold = 0.5

    def __init__(self, scores: dict[tuple[str, str], float]) -> None:
        self.scores = scores

    def similarity(self, uri_a: str, uri_b: str) -> float:
        pair = (uri_a, uri_b) if uri_a < uri_b else (uri_b, uri_a)
        return self.scores.get(pair, 0.0)

    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        score = self.similarity(uri_a, uri_b)
        return MatchDecision(uri_a, uri_b, score, score >= self.threshold)


@st.composite
def corpora(draw):
    """``(collections, candidate pairs)`` — two KBs or one."""
    two_kbs = draw(st.booleans())
    if two_kbs:
        sides = [
            [f"http://a/{i}" for i in range(draw(st.integers(2, 6)))],
            [f"http://b/{i}" for i in range(draw(st.integers(2, 6)))],
        ]
        if draw(st.booleans()):
            for side in sides:
                side.insert(draw(st.integers(0, len(side))), SHARED)
        sources = [dict.fromkeys(sides[0], "kb1"), dict.fromkeys(sides[1], "kb2")]
    else:
        sides = [[f"http://e/{i}" for i in range(draw(st.integers(3, 9)))]]
        sources = [{uri: draw(st.sampled_from(["", "x", "y"])) for uri in sides[0]}]
    collections = []
    for ordinal, (side, source) in enumerate(zip(sides, sources)):
        descriptions = []
        for uri in side:
            others = [other for other in side if other != uri]
            references = draw(st.lists(st.sampled_from(others), max_size=4))
            descriptions.append(
                EntityDescription(
                    uri,
                    {"name": [uri.rsplit("/", 1)[-1]], "rel": references},
                    source=source[uri],
                )
            )
        collections.append(EntityCollection(descriptions, name=f"kb{ordinal}"))
    uris = sorted({uri for side in sides for uri in side})
    return collections, list(combinations(uris, 2))


@st.composite
def problems(draw):
    collections, pairs = draw(corpora())
    scores = dict(zip(pairs, draw(st.lists(
        st.sampled_from(SCORES), min_size=len(pairs), max_size=len(pairs)
    ))))
    edges = [
        WeightedEdge(*pair, draw(st.sampled_from(WEIGHTS)))
        for pair in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=24))
    ]
    gold = GoldStandard.from_pairs(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    return collections, scores, edges, gold


def run(session_type, matcher_type, propagator_type, problem, config):
    """One drained (or budget-stopped) session and everything it showed."""
    collections, scores, edges, gold = problem
    benefit, update_phase, instalments, cost_weight, fan_out = config
    session = session_type(
        matcher=matcher_type(TableMatcher(scores), evidence_weight=0.3),
        edges=edges,
        collections=collections,
        benefit=BENEFITS[benefit](),
        updater=propagator_type(max_neighbor_pairs=fan_out) if update_phase else None,
        gold=gold,
        checkpoint_every=2,
        scheduling_cost_weight=cost_weight,
        refresh_estimates=update_phase,
    )
    # Both loops pop through ``pop_key``; a pop is observed as its
    # URI-sorted pair and priority.
    pops = []
    pop_key = session.scheduler.pop_key
    uris = session.context.uris

    def observed_pop_key():
        key, priority = pop_key()
        pops.append((pair_of(uris, key), priority))
        return key, priority

    session.scheduler.pop_key = observed_pop_key
    for instalment in instalments:
        result = session.advance(instalment)
    graph = result.match_graph
    return {
        "pops": pops,
        "decisions": [(tuple(sorted(d[:2])), *d[2:]) for d in decisions(graph)],
        "matched_pairs": result.matched_pairs(),
        "comparisons_executed": result.comparisons_executed,
        "scheduling_operations": result.budget.scheduling_operations,
        "consumed": result.budget.consumed,
        "benefit_total": result.benefit_total,
        "discovered_pairs": result.discovered_pairs,
        "discovered_matches": result.discovered_matches,
        "skipped_decided": result.skipped_decided,
        "curve": (result.curve.comparisons, result.curve.series),
        "left_queued": sorted(queued(session.scheduler).items()),
    }


configs = st.tuples(
    st.sampled_from(sorted(BENEFITS)),
    st.booleans(),  # update phase: propagator + re-estimation, or neither
    st.sampled_from([(None,), (3,), (2, 0, 3, None), (1, 4)]),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([1, 64]),
)


@settings(max_examples=400, deadline=None)
@given(problem=problems(), config=configs)
def test_delta_loop_equals_sweep_loop(problem, config):
    new = run(ProgressiveSession, NeighborAwareMatcher, NeighborEvidencePropagator,
              problem, config)
    old = run(SweepSession, PairwiseEvidenceMatcher, CopyingPropagator,
              problem, config)
    for key in old:
        assert new[key] == old[key], key


@pytest.mark.parametrize("dataset", ["center_dataset", "periphery_dataset"])
@pytest.mark.parametrize("benefit", sorted(BENEFITS))
def test_every_benefit_model_on_a_bench_sized_corpus(benefit, dataset, request):
    """The generated corpora are tiny; these have hubs and 120 entities.
    The periphery corpus is where evidence, boosts and discovered
    (unblocked) pairs are densest."""
    from repro.api import Pipeline, PipelineSpec

    data = request.getfixturevalue(dataset)
    edges = Pipeline(PipelineSpec()).execute(data.kb1, data.kb2, match=False).edges
    scores = {edge.pair: min(1.0, edge.weight / 4) for edge in edges}
    problem = ([data.kb1, data.kb2], scores, edges, data.gold)
    config = (benefit, True, (50, None), 0.05, 64)
    new = run(ProgressiveSession, NeighborAwareMatcher, NeighborEvidencePropagator,
              problem, config)
    old = run(SweepSession, PairwiseEvidenceMatcher, CopyingPropagator,
              problem, config)
    assert new["matched_pairs"]
    for key in old:
        assert new[key] == old[key], key
