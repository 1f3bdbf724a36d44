"""What the delta update phase no longer does — counted, not timed.

The work the loop used to repeat is visible as call counts: benefit
estimates per queued pair, neighbour-list copies per decision.  The
equality of the *results* with the old loop is
``test_progressive_differential.py``'s job.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.session import ProgressiveSession
from repro.core.updater import NeighborEvidencePropagator
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

from .progressive_oracle import CopyingPropagator, SweepSession


@pytest.fixture(scope="module")
def job(center_dataset):
    """Collections, pruned edges and a bound-ready matcher factory."""
    data = center_dataset
    pipeline = Pipeline(PipelineSpec())
    edges = pipeline.execute(data.kb1, data.kb2, match=False).edges
    collections = [data.kb1, data.kb2]
    return collections, edges, lambda: pipeline.build_matcher(collections)


class CountingQuantity(QuantityBenefit):
    def __init__(self) -> None:
        self.estimates = 0

    def estimate(self, a, b, context) -> float:
        self.estimates += 1
        return super().estimate(a, b, context)


def drain(session_type, propagator_type, job, benefit):
    collections, edges, build_matcher = job
    updater = propagator_type()
    session = session_type(
        matcher=build_matcher(),
        edges=edges,
        collections=collections,
        benefit=benefit,
        updater=updater,
    )
    result = session.advance()
    assert result.match_graph.match_count > 20
    return session, updater


def test_quantity_estimates_once_per_queued_pair_and_boost(job):
    benefit = CountingQuantity()
    session, updater = drain(ProgressiveSession, NeighborEvidencePropagator, job, benefit)
    scheduled = len({edge.pair for edge in job[1]})
    assert updater.boosted + updater.discovered > 0
    assert benefit.estimates <= scheduled + updater.boosted + updater.discovered
    # The sweep it replaces re-estimated around every match.
    swept = CountingQuantity()
    drain(SweepSession, CopyingPropagator, job, swept)
    assert swept.estimates > 2 * benefit.estimates


def test_neighbour_lists_are_not_copied_per_decision(job, monkeypatch):
    calls = []
    neighbors = EntityCollection.neighbors
    monkeypatch.setattr(
        EntityCollection,
        "neighbors",
        lambda self, uri: calls.append(uri) or neighbors(self, uri),
    )
    session, _ = drain(ProgressiveSession, NeighborEvidencePropagator, job, None)
    descriptions = sum(len(collection) for collection in job[0])
    assert session.result.comparisons_executed > descriptions
    assert len(calls) <= descriptions


class ThirdPartyCoverage(BenefitModel):
    """A model written against the two-method interface: its estimate
    reads the match state of the endpoints *and* of their neighbours."""

    name = "third-party"

    def estimate(self, a, b, context) -> float:
        around = {a, b, *context.neighbor_ids(a), *context.neighbor_ids(b),
                  *context.inverse_neighbor_ids(a), *context.inverse_neighbor_ids(b)}
        resolved = context.match_graph.partner_ids.__contains__
        return 1.0 + sum(map(resolved, around)) / len(around)

    def realized_ids(self, a, b, context) -> float:
        return 1.0


def test_model_without_stale_after_is_refreshed_on_the_conservative_set(job):
    collections = job[0]
    context = ResolutionContext(collections)
    some_pair = job[1][0].pair
    a, b = map(context.interner.get, some_pair)
    stale = ThirdPartyCoverage().stale_after(a, b, context)
    assert {context.uris[entity_id] for entity_id in stale} == (
        set(some_pair)
        | set(context.neighborhood(some_pair[0]))
        | set(context.neighborhood(some_pair[1]))
    )

    def pops(session_type, propagator_type):
        session, _ = drain(session_type, propagator_type, job, ThirdPartyCoverage())
        return [d.pair for d in session.result.match_graph.decisions()]

    delta = pops(ProgressiveSession, NeighborEvidencePropagator)
    assert delta == pops(SweepSession, CopyingPropagator)
    # ... and the refresh is what made that order: without it the
    # schedule is a different one.
    collections, edges, build_matcher = job
    static = ProgressiveSession(
        matcher=build_matcher(), edges=edges, collections=collections,
        benefit=ThirdPartyCoverage(), updater=NeighborEvidencePropagator(),
        refresh_estimates=False,
    )
    static.advance()
    assert delta != [d.pair for d in static.result.match_graph.decisions()]


def test_neighbourhood_read_follows_collection_mutation():
    kb = EntityCollection(
        [
            EntityDescription("http://e/a", {"rel": ["http://e/b"]}),
            EntityDescription("http://e/b", {"n": ["v"]}),
            EntityDescription("http://e/c", {"rel": ["http://e/a"]}),
        ]
    )
    context = ResolutionContext([kb])
    assert context.neighborhood("http://e/a") == ("http://e/b", "http://e/c")
    assert context.neighborhood("http://e/a") is context.neighborhood("http://e/a")
    kb.add(EntityDescription("http://e/a", {"rel": ["http://e/c"]}))
    assert context.neighborhood("http://e/a") == ("http://e/b", "http://e/c")
    assert kb.neighbors("http://e/a") == ["http://e/b", "http://e/c"]
    kb.remove("http://e/b")
    assert context.neighborhood("http://e/a") == ("http://e/c",)
    kb.add(EntityDescription("http://e/d", {"rel": ["http://e/a"]}))
    assert context.neighborhood("http://e/a") == ("http://e/c", "http://e/d")
    assert context.neighborhood("http://e/unknown") == ()


def test_same_source_reads_the_scanned_source_table():
    kb1 = EntityCollection([EntityDescription("http://a/1", {"n": ["v"]}, source="kb1"),
                            EntityDescription("http://s/both", {"n": ["v"]}, source="kb1")])
    kb2 = EntityCollection([EntityDescription("http://b/1", {"n": ["v"]}, source="kb2"),
                            EntityDescription("http://s/both", {"n": ["v"]}, source="kb2"),
                            EntityDescription("http://b/untagged", {"n": ["v"]})])
    context = ResolutionContext([kb1, kb2])
    assert context.source_of("http://s/both") == "kb1"  # the home collection's
    assert context.same_source("http://a/1", "http://s/both")
    assert not context.same_source("http://b/1", "http://s/both")
    assert not context.same_source("http://a/1", "http://b/1")
    assert not context.same_source("http://b/untagged", "http://b/untagged")
    assert not context.same_source("http://nowhere/x", "http://nowhere/x")
    assert context.has_shared_descriptions()
    assert not ResolutionContext([kb1]).has_shared_descriptions()
