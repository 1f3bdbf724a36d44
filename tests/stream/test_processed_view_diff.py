"""Differential property harness for the incremental processed view.

Hypothesis drives random insert interleavings — one or two sources,
duplicated arrivals, descriptions fragmented so attributes trickle in
out of order — against :class:`IncrementalProcessedView`, differencing
it against the exact ``snapshot_processed()`` oracle:

* after **every** reconciliation the view is bit-identical to the
  oracle (keys, members, cardinalities), and an immediate second
  reconciliation repairs nothing (drift 0);
* the **key-partitioned partial** repair (the default after the first
  pass) lands on the same exact state as a forced full snapshot-diff
  pass, at every reconcile point of the same interleaving;
* **between** reconciliations the drift is bounded by the staleness
  contract: the purge layer (histogram → threshold) is exact at all
  times, the staleness counter never exceeds the reconcile interval
  when queries drive the view, and every reconcile report's staleness
  equals the inserts it absorbed.

All three sample corpora feed the interleavings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging, cardinality_histogram
from repro.datasets import load_movies, load_people, load_restaurants
from repro.model.description import EntityDescription
from repro.stream import (
    DeltaPairTable,
    IncrementalBlockIndex,
    IncrementalProcessedView,
    StreamingEntityStore,
    StreamResolver,
)

_LOADERS = {
    "restaurants": load_restaurants,
    "movies": load_movies,
    "people": load_people,
}
_CORPUS_CACHE: dict[str, tuple] = {}


def _corpus(name: str):
    if name not in _CORPUS_CACHE:
        kb1, kb2, _gold = _LOADERS[name]()
        _CORPUS_CACHE[name] = (kb1, kb2)
    return _CORPUS_CACHE[name]


def _fragments(description: EntityDescription, data) -> list[EntityDescription]:
    """Split a description into 1–2 attribute pieces (merge trickle)."""
    pairs = list(description.pairs())
    if len(pairs) < 2 or not data.draw(st.booleans()):
        return [description.copy()]
    cut = data.draw(st.integers(1, len(pairs) - 1))
    out = []
    for part in (pairs[:cut], pairs[cut:]):
        attributes: dict[str, list] = {}
        for prop, value in part:
            attributes.setdefault(prop, []).append(value)
        out.append(EntityDescription(description.uri, attributes))
    return out


def _draw_arrivals(data) -> tuple[str, bool, list[tuple[EntityDescription, int]]]:
    """A random interleaving: corpus, sources, fragmented + duplicated."""
    corpus_name = data.draw(st.sampled_from(sorted(_LOADERS)))
    kb1, kb2 = _corpus(corpus_name)
    two_sources = data.draw(st.booleans())
    pool = [(description, 0) for description in kb1]
    if two_sources:
        pool += [(description, 1) for description in kb2]
    indices = data.draw(
        st.lists(
            st.integers(0, len(pool) - 1),
            min_size=4,
            max_size=min(18, len(pool)),
            unique=True,
        )
    )
    pieces: list[tuple[EntityDescription, int]] = []
    for index in indices:
        description, source = pool[index]
        for piece in _fragments(description, data):
            pieces.append((piece, source))
    arrivals = data.draw(st.permutations(pieces))
    duplicates = data.draw(st.lists(st.sampled_from(arrivals), max_size=4))
    return corpus_name, two_sources, list(arrivals) + [
        (description.copy(), source) for description, source in duplicates
    ]


def _assert_view_exact(view, index, purging, filtering, context: str) -> None:
    """Rebuilt view content must be bit-identical to the oracle."""
    exact = index.snapshot_processed(purging, filtering)
    rebuilt = view._build_collection()
    assert rebuilt.keys() == exact.keys(), context
    for key in exact.keys():
        assert rebuilt[key].entities1 == exact[key].entities1, (context, key)
        assert rebuilt[key].entities2 == exact[key].entities2, (context, key)
        assert rebuilt[key].cardinality() == exact[key].cardinality(), (
            context,
            key,
        )
    assert rebuilt.id_blocks() == exact.id_blocks(), context
    # materialize() derives the same collection from the repaired state
    # (cached per store version).
    materialized = view.materialize()
    assert materialized is view.materialize()
    assert materialized.keys() == exact.keys(), context
    assert materialized.id_blocks() == exact.id_blocks(), context


def _draw_ops(data) -> tuple[str, bool, list[tuple]]:
    """A random insert/delete interleaving over a fragmented arrival mix.

    Deletes always target a currently-live URI (roughly one delete per
    four inserts); a URI deleted early can arrive again later via the
    duplicated tail — the re-insert-after-retraction case.
    """
    corpus_name, two_sources, arrivals = _draw_arrivals(data)
    ops: list[tuple] = []
    live: list[str] = []
    for description, source in arrivals:
        ops.append(("insert", description, source))
        if description.uri not in live:
            live.append(description.uri)
        if live and data.draw(st.integers(0, 3)) == 0:
            victim = data.draw(st.sampled_from(live))
            live.remove(victim)
            ops.append(("delete", victim, None))
    return corpus_name, two_sources, ops


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reconcile_restores_exactness_under_any_interleaving(data):
    """view == snapshot_processed() after every reconciliation."""
    corpus_name, two_sources, arrivals = _draw_arrivals(data)
    interval = data.draw(st.integers(1, 9))
    sources = ("kb1", "kb2") if two_sources else ("kb1",)
    store = StreamingEntityStore(sources=sources)
    index = IncrementalBlockIndex(store)
    purging, filtering = BlockPurging(), BlockFiltering()
    view = IncrementalProcessedView(
        index, purging, filtering, reconcile_every=interval
    )
    since_reconcile = 0
    for description, source in arrivals:
        store.insert(description.copy(), source)
        since_reconcile += 1
        # The purge layer is exact at ALL times: the maintained
        # histogram (and the threshold derived from it) must equal the
        # batch distribution over the raw snapshot — the bounded-drift
        # half of the staleness contract.
        raw = index.snapshot()
        assert view.histogram() == cardinality_histogram(raw)
        assert view.threshold == purging.adaptive_threshold(raw)
        if view.due:
            report = view.reconcile()
            assert report.staleness == since_reconcile
            since_reconcile = 0
            _assert_view_exact(
                view, index, purging, filtering, f"{corpus_name}@reconcile"
            )
    report = view.reconcile()
    assert report.staleness == since_reconcile
    _assert_view_exact(view, index, purging, filtering, f"{corpus_name}@final")
    # An immediately repeated reconcile has nothing left to repair.
    assert view.reconcile().drift == 0


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_survivor_stats_follow_reconciled_view(data):
    """DeltaPairTable(view) == batch graph over the processed collection."""
    from metablocking.string_graph_oracle import reference_pair_statistics

    _name, two_sources, arrivals = _draw_arrivals(data)
    sources = ("kb1", "kb2") if two_sources else ("kb1",)
    store = StreamingEntityStore(sources=sources)
    index = IncrementalBlockIndex(store)
    view = IncrementalProcessedView(index, reconcile_every=5)
    table = DeltaPairTable(view)
    for position, (description, source) in enumerate(arrivals):
        store.insert(description.copy(), source)
        if view.due:
            view.reconcile()
    view.reconcile()
    processed = index.snapshot_processed()
    reference = reference_pair_statistics(processed)
    assert table.as_reference_stats() == reference
    assert table.active_blocks == len(processed)
    assert table.total_assignments == processed.total_assignments()
    assert table.entities_placed == processed.entity_count()


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_resolver_honors_staleness_bound(data):
    """Auto-reconciliation keeps view staleness strictly under K."""
    _name, two_sources, arrivals = _draw_arrivals(data)
    interval = data.draw(st.integers(2, 6))
    resolver = StreamResolver(
        clean_clean=two_sources,
        processed_view=True,
        reconcile_every=interval,
    )
    assert resolver.view is not None
    for position, (description, source) in enumerate(arrivals):
        if position % 3 == 2:
            result = resolver.resolve(description.copy(), source=source)
            # A query reconciles when due, so it never serves a view
            # staler than the configured bound.
            assert resolver.view.staleness < interval
            assert "reconcile_s" in result.latency
            assert "serve_s" in result.latency
        else:
            resolver.ingest(description.copy(), source)


def test_pinned_max_cardinality_threshold_applies_between_reconciles():
    """Regression: an explicit ``max_cardinality`` must drive presence
    checks from the first insert — not leave the view at the default
    threshold of 1, silently dropping every multi-comparison block."""
    kb1, kb2 = _corpus("restaurants")
    store = StreamingEntityStore(sources=(kb1.name, kb2.name))
    index = IncrementalBlockIndex(store)
    purging = BlockPurging(max_cardinality=10**9)
    filtering = BlockFiltering()
    view = IncrementalProcessedView(index, purging, filtering)
    for source, kb in enumerate([kb1, kb2]):
        for description in kb:
            store.insert(description.copy(), source)
    assert view.threshold == 10**9
    # Without any reconcile, the maintained view must already expose
    # blocks implying more than one comparison (every entity was
    # touched, so the approximation is exact here).
    live = view._build_collection()
    assert any(block.cardinality() > 1 for block in live)
    exact = index.snapshot_processed(purging, filtering)
    assert live.keys() == exact.keys()
    view.reconcile()
    _assert_view_exact(view, index, purging, filtering, "pinned-threshold")


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reconcile_restores_exactness_under_deletions(data):
    """view == snapshot_processed() after every reconcile, with the
    purge layer (histogram → threshold) exact after EVERY op — inserts
    and retractions alike."""
    corpus_name, two_sources, ops = _draw_ops(data)
    interval = data.draw(st.integers(1, 9))
    sources = ("kb1", "kb2") if two_sources else ("kb1",)
    store = StreamingEntityStore(sources=sources)
    index = IncrementalBlockIndex(store)
    purging, filtering = BlockPurging(), BlockFiltering()
    view = IncrementalProcessedView(
        index, purging, filtering, reconcile_every=interval
    )
    for op in ops:
        if op[0] == "insert":
            store.insert(op[1].copy(), op[2])
        else:
            assert store.delete(op[1])
        raw = index.snapshot()
        assert view.histogram() == cardinality_histogram(raw)
        assert view.threshold == purging.adaptive_threshold(raw)
        if view.due:
            view.reconcile()
            _assert_view_exact(
                view, index, purging, filtering, f"{corpus_name}@churn-reconcile"
            )
    view.reconcile()
    _assert_view_exact(view, index, purging, filtering, f"{corpus_name}@churn-final")
    assert view.reconcile().drift == 0


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_tombstoned_entities_never_resolve(data):
    """A retracted entity must never surface in resolve() results
    (unless it was re-inserted afterwards) — even while the approximate
    view is stale — and a reconcile leaves no tombstone placed."""
    _name, two_sources, ops = _draw_ops(data)
    resolver = StreamResolver(
        clean_clean=two_sources, processed_view=True, reconcile_every=4
    )
    tombstoned: set[str] = set()
    for position, op in enumerate(ops):
        if op[0] == "insert":
            description, source = op[1], op[2]
            tombstoned.discard(description.uri)
            if position % 3 == 2:
                result = resolver.resolve(description.copy(), source=source)
                surfaced = set(result.matched_uris())
                assert not surfaced & tombstoned, (surfaced, tombstoned)
            else:
                resolver.ingest(description.copy(), source)
        else:
            resolver.delete(op[1])
            tombstoned.add(op[1])
            assert resolver.store.get(op[1]) is None
    # Between reconciles the approximate view may lag a retraction (the
    # same bounded staleness inserts get); a reconcile must purge it.
    resolver.view.reconcile()
    placed: set[str] = set()
    for block in resolver.view._build_collection():
        placed.update(block.entities1)
        placed.update(block.entities2 or ())
    assert not placed & tombstoned


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_partial_repair_equals_full_repair(data):
    """Partial repair == forced full repair, at every reconcile point.

    Two views replay the same insert/delete interleaving; one
    reconciles with the default strategy (key-partitioned partial after
    the first pass), the other forces the full snapshot diff each time.
    Both must be bit-identical to the oracle — and to each other — at
    every reconcile point.
    """
    corpus_name, two_sources, ops = _draw_ops(data)
    interval = data.draw(st.integers(1, 9))
    sources = ("kb1", "kb2") if two_sources else ("kb1",)
    purging, filtering = BlockPurging(), BlockFiltering()

    def build():
        store = StreamingEntityStore(sources=sources)
        index = IncrementalBlockIndex(store)
        view = IncrementalProcessedView(
            index, purging, filtering, reconcile_every=interval
        )
        return store, index, view

    store_p, index_p, view_p = build()
    store_f, _index_f, view_f = build()
    first = True
    for op in ops:
        for store in (store_p, store_f):
            if op[0] == "insert":
                store.insert(op[1].copy(), op[2])
            else:
                assert store.delete(op[1])
        if view_p.due:
            partial = view_p.reconcile()
            forced = view_f.reconcile(full=True)
            assert forced.mode == "full"
            assert partial.mode == ("full" if first else "partial")
            first = False
            _assert_view_exact(
                view_p, index_p, purging, filtering, f"{corpus_name}@partial"
            )
            assert (
                view_p._build_collection().id_blocks()
                == view_f._build_collection().id_blocks()
            )
    partial = view_p.reconcile()
    view_f.reconcile(full=True)
    assert partial.mode == ("full" if first else "partial")
    _assert_view_exact(
        view_p, index_p, purging, filtering, f"{corpus_name}@partial-final"
    )
    assert (
        view_p._build_collection().id_blocks()
        == view_f._build_collection().id_blocks()
    )
    # Nothing dirty ⇒ an immediate partial pass repairs nothing.
    again = view_p.reconcile()
    assert again.mode == "partial"
    assert again.drift == 0
    assert again.entities_repaired == 0


@pytest.mark.parametrize("corpus_name", sorted(_LOADERS))
def test_full_corpus_reconciles_exactly(corpus_name):
    """Deterministic end-to-end check per corpus (no hypothesis)."""
    kb1, kb2 = _corpus(corpus_name)
    store = StreamingEntityStore(sources=(kb1.name, kb2.name))
    index = IncrementalBlockIndex(store)
    purging, filtering = BlockPurging(), BlockFiltering()
    view = IncrementalProcessedView(index, purging, filtering)
    for source, kb in enumerate([kb1, kb2]):
        for description in kb:
            store.insert(description.copy(), source)
    # The very first pass is always the full snapshot diff...
    report = view.reconcile()
    assert report.mode == "full"
    assert report.entities_repaired == len(kb1) + len(kb2)
    _assert_view_exact(view, index, purging, filtering, corpus_name)
    # ...and a quiet follow-up is a partial no-op.
    again = view.reconcile()
    assert again.mode == "partial"
    assert again.drift == 0
    assert again.entities_repaired == 0
