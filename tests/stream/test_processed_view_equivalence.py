"""Processed-view equivalence: every corpus × workload scenario.

The acceptance contract of the incremental processed view: after any
of the three arrival/query scenarios replays over any sample corpus —
through the full :class:`StreamResolver` serving path, with automatic
reconciliations — one final reconciliation leaves the view
**bit-identical** to ``snapshot_processed()``: same blocks, members,
cardinalities and id views, with survivor pair statistics equal to a
batch graph over the processed collection.
"""

from __future__ import annotations

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.datasets import load_movies, load_people, load_restaurants
from repro.model.collection import EntityCollection
from repro.stream import StreamResolver, WorkloadDriver
from repro.stream.workload import SCENARIOS

from metablocking.string_graph_oracle import reference_pair_statistics

CORPORA = {
    "restaurants": load_restaurants,
    "movies": load_movies,
    "people": load_people,
}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    kb1, kb2, _gold = CORPORA[request.param]()
    return kb1, kb2


@pytest.fixture(params=sorted(SCENARIOS))
def replayed(request, corpus):
    """A view-serving resolver after a full scenario replay."""
    kb1, kb2 = corpus
    resolver = StreamResolver(
        clean_clean=True, processed_view=True, reconcile_every=10
    )
    resolver.store.collections[0].name = kb1.name
    resolver.store.collections[1].name = kb2.name
    events = SCENARIOS[request.param](kb1, kb2)
    stats = WorkloadDriver(resolver).run(events, scenario=request.param)
    return resolver, stats


def _assert_same_collection(rebuilt, exact) -> None:
    """Keys, per-side members, cardinalities, id views, interner, name."""
    assert rebuilt.name == exact.name
    assert rebuilt.keys() == exact.keys()
    for key in exact.keys():
        assert rebuilt[key].entities1 == exact[key].entities1, key
        assert rebuilt[key].entities2 == exact[key].entities2, key
        assert rebuilt[key].cardinality() == exact[key].cardinality(), key
    assert rebuilt.id_blocks() == exact.id_blocks()
    assert rebuilt.interner().uris() == exact.interner().uris()


def test_reconciled_view_bit_identical(corpus, replayed):
    resolver, _stats = replayed
    view = resolver.view
    # The replay auto-reconciled at least once, so this pass takes the
    # key-partitioned partial path...
    report = view.reconcile()
    assert report.mode == "partial"
    exact = resolver.index.snapshot_processed()
    # ...whose repaired state materializes to the same collection,
    assert report.exact_blocks == len(exact)
    rebuilt = view.materialize()
    _assert_same_collection(rebuilt, exact)
    assert view.materialize() is rebuilt  # one cache, per version
    # and so does a forced full pass: a reconcile leaves state, and the
    # collection is derived from it when asked (never handed over).
    assert view.reconcile(full=True).mode == "full"
    again = view.materialize()
    assert again is not rebuilt and again is not exact
    _assert_same_collection(again, exact)


@pytest.mark.parametrize("full", [False, True], ids=["partial", "full"])
def test_reconcile_leaves_state_not_a_collection(replayed, monkeypatch, full):
    """A reconcile builds no block, takes no snapshot and sorts no
    posting; the collection is derived from its state afterwards."""
    resolver, _stats = replayed
    view, index = resolver.view, resolver.index
    extra = next(iter(resolver.store.collections[1])).copy()
    resolver.ingest(extra, 0)  # something to repair, and a URI on both sides

    def forbidden(*_args, **_kwargs):
        raise AssertionError("reconcile() built a collection")

    with monkeypatch.context() as patched:
        patched.setattr(Block, "__init__", forbidden)
        patched.setattr(BlockCollection, "from_members", forbidden)
        patched.setattr(type(index), "snapshot_processed", forbidden)
        patched.setattr(type(view), "_build_collection", forbidden)
        lazy_sorts = dict(index._unsorted), index.resort_count
        report = view.reconcile(full=full)
        assert (dict(index._unsorted), index.resort_count) == lazy_sorts
    assert report.mode == ("full" if full else "partial")
    exact = index.snapshot_processed()
    assert report.exact_blocks == len(exact)
    _assert_same_collection(view.materialize(), exact)


def test_view_matches_batch_pipeline(corpus, replayed):
    """The reconciled view equals batch purge+filter over the live corpus.

    For the insert-only scenarios the live corpus is the full corpus
    (queries re-resolve already-inserted descriptions); for ``churn``
    and ``erasure`` it is the survivors of the deletions — either way
    the oracle is the batch pipeline over what is live at the end,
    which is exactly the deletion contract: retractions leave no trace.
    """
    resolver, _stats = replayed
    resolver.view.reconcile()
    live1, live2 = (
        EntityCollection(
            (description.copy() for description in collection),
            name=collection.name,
        )
        for collection in resolver.store.collections
    )
    batch = BlockFiltering().process(
        BlockPurging().process(TokenBlocking().build(live1, live2))
    )
    view = resolver.view.materialize()
    assert view.keys() == batch.keys()
    for key in batch.keys():
        assert view[key].entities1 == batch[key].entities1, key
        assert view[key].entities2 == batch[key].entities2, key


def test_survivor_stats_match_processed_graph(corpus, replayed):
    resolver, _stats = replayed
    resolver.view.reconcile()
    processed = resolver.index.snapshot_processed()
    reference = reference_pair_statistics(processed)
    assert resolver.view_pairs.as_reference_stats() == reference
    assert resolver.view_pairs.active_blocks == len(processed)
    assert resolver.view_pairs.total_assignments == processed.total_assignments()
    assert resolver.view_pairs.entities_placed == processed.entity_count()


def test_replay_reports_reconcile_serve_split(replayed):
    """The driver surfaces the reconcile-vs-serve latency split."""
    resolver, stats = replayed
    assert stats.queries > 0
    assert stats.serve_s > 0.0
    # With interval 10 and dozens of inserts, at least one query must
    # have auto-reconciled.
    assert stats.reconciles >= 1
    assert stats.reconcile_s > 0.0
    rows = {row["metric"] for row in stats.summary_rows()}
    assert "view reconciles (queries)" in rows
