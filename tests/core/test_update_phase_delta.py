"""What the delta update phase no longer does — counted, not timed.

The work the loop used to repeat is visible as call counts: benefit
estimates per queued pair.  The
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

from .id_views import decisions
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
    a, b = map(context.interner.get, job[1][0].pair)
    stale = ThirdPartyCoverage().stale_after(a, b, context)
    assert set(stale) == {a, b, *context.neighborhood_ids(a), *context.neighborhood_ids(b)}

    def decided(session) -> list[tuple[str, str]]:
        return [decision[:2] for decision in decisions(session.result.match_graph)]

    def pops(session_type, propagator_type):
        session, _ = drain(session_type, propagator_type, job, ThirdPartyCoverage())
        return decided(session)

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
    assert delta != decided(static)


def test_same_source_reads_the_scanned_source_table():
    kb1 = EntityCollection([EntityDescription("http://a/1", {"n": ["v"]}, source="kb1"),
                            EntityDescription("http://s/both", {"n": ["v"]}, source="kb1")])
    kb2 = EntityCollection([EntityDescription("http://b/1", {"n": ["v"]}, source="kb2"),
                            EntityDescription("http://s/both", {"n": ["v"]}, source="kb2"),
                            EntityDescription("http://b/untagged", {"n": ["v"]})])
    context = ResolutionContext([kb1, kb2])
    a1, both, b1, untagged, nowhere = map(
        context.interner.get,
        ["http://a/1", "http://s/both", "http://b/1", "http://b/untagged", "http://nowhere/x"],
    )
    assert context.same_source_ids(a1, both)  # the home collection's source
    assert not context.same_source_ids(b1, both)
    assert not context.same_source_ids(a1, b1)
    assert not context.same_source_ids(untagged, untagged)
    assert not context.same_source_ids(nowhere, nowhere)
    assert context.has_shared_descriptions()
    assert not ResolutionContext([kb1]).has_shared_descriptions()
