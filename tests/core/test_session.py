"""Tests for resumable pay-as-you-go sessions."""

from __future__ import annotations

import pytest

from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER
from repro.core.session import ProgressiveSession
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.matching.matcher import OracleMatcher
from repro.metablocking.graph import WeightedEdge
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription


def world(n: int = 8):
    kb1 = EntityCollection(
        [EntityDescription(f"http://a/{i}", {"p": [f"v{i}"]}, source="kb1") for i in range(n)],
        name="kb1",
    )
    kb2 = EntityCollection(
        [EntityDescription(f"http://b/{i}", {"q": [f"v{i}"]}, source="kb2") for i in range(n)],
        name="kb2",
    )
    gold = GoldStandard.from_pairs([(f"http://a/{i}", f"http://b/{i}") for i in range(n)])
    edges = [
        WeightedEdge(f"http://a/{i}", f"http://b/{i}", float(n - i)) for i in range(n)
    ]
    return kb1, kb2, gold, edges


def make_session(**kwargs) -> tuple[ProgressiveSession, GoldStandard]:
    kb1, kb2, gold, edges = world()
    session = ProgressiveSession(
        matcher=OracleMatcher(gold.matches),
        edges=edges,
        collections=[kb1, kb2],
        gold=gold,
        **kwargs,
    )
    return session, gold


class TestInstalments:
    def test_nothing_happens_before_advance(self):
        session, _ = make_session()
        assert session.result.comparisons_executed == 0
        assert session.pending_comparisons == 8

    def test_single_instalment(self):
        session, _ = make_session()
        result = session.advance(3)
        assert result.comparisons_executed == 3
        assert session.pending_comparisons == 5
        assert session.recall == pytest.approx(3 / 8)

    def test_multiple_instalments_accumulate(self):
        session, _ = make_session()
        session.advance(3)
        result = session.advance(2)
        assert result.comparisons_executed == 5
        assert session.recall == pytest.approx(5 / 8)

    def test_curve_spans_all_instalments(self):
        session, _ = make_session(checkpoint_every=1)
        session.advance(3)
        session.advance(5)
        result = session.result
        assert result.curve.comparisons[-1] == 8
        assert result.curve.final("recall") == 1.0

    def test_unlimited_advance_drains(self):
        session, _ = make_session()
        session.advance(2)
        result = session.advance(None)
        assert result.comparisons_executed == 8
        assert session.finished

    def test_zero_instalment_is_noop(self):
        session, _ = make_session()
        result = session.advance(0)
        assert result.comparisons_executed == 0

    def test_negative_instalment_rejected(self):
        session, _ = make_session()
        with pytest.raises(ValueError):
            session.advance(-1)

    def test_advance_after_finish_is_noop(self):
        session, _ = make_session()
        session.advance(None)
        executed = session.result.comparisons_executed
        session.advance(10)
        assert session.result.comparisons_executed == executed

    def test_shared_result_object(self):
        session, _ = make_session()
        first = session.advance(1)
        second = session.advance(1)
        assert first is second

    def test_matched_pairs_accessible_between_instalments(self):
        session, _ = make_session()
        session.advance(2)
        assert len(session.result.matched_pairs()) == 2


class TestEngineEquivalence:
    def test_run_equals_fully_advanced_session(self):
        kb1, kb2, gold, edges = world()
        engine = ProgressiveER(
            matcher=OracleMatcher(gold.matches), budget=CostBudget(5)
        )
        run_result = engine.run(edges, [kb1, kb2], gold=gold)
        session = engine.session(edges, [kb1, kb2], gold=gold)
        session_result = session.advance(5)
        assert run_result.comparisons_executed == session_result.comparisons_executed
        assert run_result.matched_pairs() == session_result.matched_pairs()
        assert run_result.curve.series["recall"] == session_result.curve.series["recall"]

    def test_split_instalments_reach_same_state(self):
        kb1, kb2, gold, edges = world()

        def run_split(splits):
            session = ProgressiveSession(
                matcher=OracleMatcher(gold.matches),
                edges=edges,
                collections=[kb1, kb2],
                gold=gold,
            )
            for instalment in splits:
                session.advance(instalment)
            return session.result.matched_pairs()

        assert run_split([6]) == run_split([1, 2, 3]) == run_split([2, 2, 2])


class TestUpdatePhaseInSession:
    def test_discovery_across_instalments(self):
        kb1 = EntityCollection(
            [
                EntityDescription("http://a/1", {"p": ["x"], "r": ["http://a/2"]}, source="kb1"),
                EntityDescription("http://a/2", {"p": ["y"]}, source="kb1"),
            ],
            name="kb1",
        )
        kb2 = EntityCollection(
            [
                EntityDescription("http://b/1", {"q": ["x"], "s": ["http://b/2"]}, source="kb2"),
                EntityDescription("http://b/2", {"q": ["y"]}, source="kb2"),
            ],
            name="kb2",
        )
        gold = GoldStandard.from_pairs(
            [("http://a/1", "http://b/1"), ("http://a/2", "http://b/2")]
        )
        session = ProgressiveSession(
            matcher=OracleMatcher(gold.matches),
            edges=[WeightedEdge("http://a/1", "http://b/1", 1.0)],
            collections=[kb1, kb2],
            updater=NeighborEvidencePropagator(discovery_weight=0.5),
            gold=gold,
        )
        session.advance(1)
        # The blocked pair matched; its neighbours were discovered and wait.
        assert session.pending_comparisons == 1
        session.advance(1)
        assert session.result.discovered_matches == 1
        assert session.recall == 1.0
