"""Query-time resolution behaviour of the stream resolver."""

from __future__ import annotations

import pytest

from repro.datasets import load_restaurants
from repro.metablocking.pruning import node_budget
from repro.metablocking.weighting import WeightingScheme
from repro.model.description import EntityDescription
from repro.model.interner import pack_pair
from repro.stream import StreamResolver
from repro.stream.durability import capture_state
from repro.stream.resolver import prune_neighbourhood, query_components


@pytest.fixture()
def restaurant_resolver():
    kb1, kb2, gold = load_restaurants()
    resolver = StreamResolver(clean_clean=True)
    resolver.ingest_batch([d.copy() for d in kb1], 0)
    resolver.ingest_batch([d.copy() for d in kb2], 1)
    return resolver, kb1, kb2, gold


class TestResolve:
    def test_finds_gold_counterparts(self, restaurant_resolver):
        resolver, kb1, kb2, gold = restaurant_resolver
        found = 0
        for left, right in sorted(gold.matches):
            description = (kb1.get(left) or kb2.get(left)).copy()
            source = 0 if left in kb1 else 1
            result = resolver.resolve(description, source=source)
            if right in result.matched_uris():
                found += 1
        # The cosine matcher at the default threshold recovers most of
        # the gold pairs on this corpus; the exact count is pinned by
        # determinism.
        assert found >= len(gold.matches) // 2

    def test_latency_accounting_complete(self, restaurant_resolver):
        resolver, kb1, _, _ = restaurant_resolver
        result = resolver.resolve(next(iter(kb1)).copy(), source=0)
        for phase in ("ingest_s", "candidates_s", "weigh_s", "match_s", "total_s"):
            assert phase in result.latency
            assert result.latency[phase] >= 0.0
        assert result.latency["total_s"] >= result.latency["match_s"]

    def test_budget_caps_comparisons(self, restaurant_resolver):
        resolver, kb1, _, _ = restaurant_resolver
        description = next(iter(kb1)).copy()
        result = resolver.resolve(description, source=0, pruner="none", budget=1)
        assert result.comparisons <= 1

    def test_clean_clean_never_compares_same_source(self, restaurant_resolver):
        resolver, kb1, _, _ = restaurant_resolver
        for description in kb1:
            result = resolver.resolve(description.copy(), source=0, pruner="none")
            for match in result.matches:
                assert match.uri not in kb1

    def test_all_schemes_and_pruners_accepted(self, restaurant_resolver):
        resolver, kb1, _, _ = restaurant_resolver
        description = next(iter(kb1)).copy()
        for scheme in ("CBS", "ECBS", "JS", "EJS", "ARCS", "X2"):
            for pruner in ("CNP", "WNP", "none"):
                result = resolver.resolve(description, scheme=scheme, pruner=pruner)
                assert result.comparisons >= 0

    def test_unknown_scheme_and_pruner_rejected(self, restaurant_resolver):
        resolver, kb1, _, _ = restaurant_resolver
        description = next(iter(kb1)).copy()
        with pytest.raises(KeyError):
            resolver.resolve(description, scheme="nope")
        with pytest.raises(KeyError):
            resolver.resolve(description, pruner="nope")

    @pytest.mark.parametrize("bad", [{"scheme": "nope"}, {"pruner": "nope"}])
    def test_unknown_names_rejected_without_candidates_too(self, bad):
        """The same call fails the same way on an empty and a full store."""
        resolver = StreamResolver()
        with pytest.raises(KeyError, match="nope"):
            resolver.resolve(EntityDescription("http://e/a", {"p": ["x"]}), **bad)
        assert len(resolver.store) == 0  # rejected before the ingest

    def test_decisions_accumulate_across_queries(self, restaurant_resolver):
        resolver, kb1, _, _ = restaurant_resolver
        description = next(iter(kb1)).copy()
        first = resolver.resolve(description, source=0, pruner="none")
        second = resolver.resolve(description.copy(), source=0, pruner="none")
        # Every pair decided by the first query is skipped by the second.
        assert second.skipped_decided >= first.comparisons
        assert second.comparisons == 0

    def test_repeat_query_still_reports_known_matches(self, restaurant_resolver):
        resolver, kb1, _, gold = restaurant_resolver
        left, right = sorted(gold.matches)[0]
        description = (kb1.get(left) or kb1.get(right)).copy()
        first = resolver.resolve(description, source=0, pruner="none")
        # Re-querying a resolved entity must surface the match found
        # earlier, not hide it behind "already decided".
        second = resolver.resolve(description.copy(), source=0, pruner="none")
        assert set(second.matched_uris()) >= set(first.matched_uris())

    def test_prepopulated_store_is_replayed(self):
        from repro.stream import StreamingEntityStore

        store = StreamingEntityStore()
        store.insert(EntityDescription("http://e/a", {"p": ["alpha beta gamma"]}))
        store.insert(EntityDescription("http://e/c", {"p": ["delta beta"]}))
        late = StreamResolver(store=store)
        fresh = StreamResolver()
        fresh.ingest(EntityDescription("http://e/a", {"p": ["alpha beta gamma"]}))
        fresh.ingest(EntityDescription("http://e/c", {"p": ["delta beta"]}))
        probe = EntityDescription("http://e/b", {"p": ["alpha beta gamma"]})
        late_result = late.resolve(probe.copy(), pruner="none")
        fresh_result = fresh.resolve(probe.copy(), pruner="none")
        assert late_result.candidates == fresh_result.candidates > 0
        assert late_result.matched_uris() == fresh_result.matched_uris()
        assert late.pairs.as_reference_stats() == fresh.pairs.as_reference_stats()

    def test_resolve_without_ingest_requires_known_uri(self):
        resolver = StreamResolver()
        with pytest.raises(KeyError):
            resolver.resolve(
                EntityDescription("http://e/unknown", {"p": ["v"]}), ingest=False
            )


class TestPruneNeighbourhood:
    URIS = [f"http://e/{i}" for i in range(8)]

    @staticmethod
    def prune(weights, pruner, entities_placed=1, total_assignments=0):
        _weighting, pruning = query_components("ARCS", pruner)
        return prune_neighbourhood(
            weights, pruning, TestPruneNeighbourhood.URIS,
            entities_placed, total_assignments,
        )

    @pytest.mark.parametrize("pruner", ["WNP", "ReciprocalWNP", "WEP"])
    def test_mean_does_not_depend_on_insertion_order(self, pruner):
        # (.1 + .2 + .3) / 3 lands above .2; (.3 + .2 + .1) / 3 below it.
        forward = {1: 0.1, 2: 0.2, 3: 0.3}
        backward = dict(reversed(forward.items()))
        assert self.prune(forward, pruner) == [(3, 0.3)]
        assert self.prune(backward, pruner) == [(3, 0.3)]

    @pytest.mark.parametrize("pruner", ["CNP", "ReciprocalCNP", "CEP"])
    def test_top_k_uses_the_batch_node_budget(self, pruner):
        weights = {5: 0.5, 1: 0.9, 3: 0.5, 7: 0.1}
        # 9 placements over 3 entities: k = ceil(3) - 1 = 2.
        assert node_budget(9, 3) == 2
        assert self.prune(weights, pruner, 3, 9) == [(1, 0.9), (3, 0.5)]

    def test_none_keeps_every_candidate_ranked(self):
        weights = {5: 0.5, 1: 0.9, 3: 0.5, 7: 0.1}
        assert self.prune(weights, "none") == [(1, 0.9), (3, 0.5), (5, 0.5), (7, 0.1)]
        assert self.prune(weights, "NONE") == self.prune(weights, "none")

    @pytest.mark.parametrize("pruner", ["all", ""])
    def test_keep_all_aliases_are_gone(self, pruner):
        with pytest.raises(KeyError):
            query_components("ARCS", pruner)


def test_a_scheme_without_an_array_path_cannot_weigh_a_star(restaurant_resolver):
    """Stream stars are weighed by ``weight_array`` alone: a plugin on
    the string API fails loudly instead of weighing row by row."""

    class StringOnly(WeightingScheme):
        name = "STRING-ONLY"

        def weight(self, uri_a, uri_b, common_blocks, arcs):
            return float(common_blocks)

    resolver = restaurant_resolver[0]
    entity_id = next(
        e for e in range(len(resolver.store)) if resolver.index.neighbours_of(e)
    )
    candidates = resolver.index.neighbours_of(entity_id)
    with pytest.raises(KeyError, match="STRING-ONLY"):
        resolver.pairs.weigh(StringOnly(), entity_id, candidates)


class TestIngestion:
    def test_ingest_returns_stable_ids(self):
        resolver = StreamResolver()
        a = resolver.ingest(EntityDescription("http://e/a", {"p": ["x y"]}))
        b = resolver.ingest(EntityDescription("http://e/b", {"p": ["y z"]}))
        again = resolver.ingest(EntityDescription("http://e/a", {"p": ["w"]}))
        assert (a, b) == (0, 1)
        assert again == a

    def test_store_length_counts_distinct(self):
        resolver = StreamResolver()
        resolver.ingest(EntityDescription("http://e/a", {"p": ["x"]}))
        resolver.ingest(EntityDescription("http://e/a", {"p": ["y"]}))
        assert len(resolver.store) == 1

    def test_source_bounds_checked(self):
        resolver = StreamResolver()
        with pytest.raises(IndexError):
            resolver.ingest(EntityDescription("http://e/a", {"p": ["x"]}), source=1)

    @pytest.mark.parametrize("source", [-1, 2])
    def test_rejected_insert_moves_nothing(self, tmp_path, source):
        """A bad source ordinal fails before the WAL, store or index move.

        ``-1`` used to pick kb2 by negative indexing, get logged and
        merged, and only then die inside the index.
        """
        resolver = StreamResolver(clean_clean=True, durability=str(tmp_path))
        resolver.ingest(EntityDescription("http://e/a", {"p": ["x y"]}), 0)
        wal_path = tmp_path / "wal.log"

        def everything():
            state = capture_state(resolver.store, resolver.index, resolver.pairs)
            return state, wal_path.read_bytes()

        before = everything()
        with pytest.raises(IndexError, match="source"):
            resolver.ingest(EntityDescription("http://e/b", {"p": ["y z"]}), source)
        assert everything() == before
        assert len(resolver.store.collections[1]) == 0


class TestContextFollowsDeletes:
    """The resolution context forgets a retracted URI (it used to
    subscribe to inserts only)."""

    def test_insert_delete_cycles_leave_no_context_entries(self):
        resolver = StreamResolver(processed_view=True)
        for i in range(2000):
            uri = f"http://e/{i}"
            resolver.ingest(EntityDescription(uri, {"p": [f"token{i % 7} x"]}))
            assert resolver.delete(uri)
        assert len(resolver.store) == 0
        assert resolver.context._home == {} and resolver.context._source == {}

    def test_a_uri_reinserted_into_the_other_source_is_rehomed(self):
        resolver = StreamResolver(clean_clean=True)
        context = resolver.context
        uri = "http://e/mover"
        resolver.ingest(EntityDescription(uri, {"p": ["x y"]}, source="one"), 0)
        entity_id = context.interner.id_of(uri)
        assert context._source[entity_id] == "one"
        resolver.delete(uri)
        assert context.description(uri) is None and entity_id not in context._source
        resolver.ingest(EntityDescription(uri, {"p": ["y z"]}, source="two"), 1)
        assert context.description(uri) is resolver.store.get(uri) is not None
        assert context._source[entity_id] == "two"
        assert context._home[entity_id] is resolver.store.collections[1]

    def test_a_uri_held_by_both_sources_is_forgotten_once_retracted(self):
        resolver = StreamResolver(clean_clean=True)
        uri = "http://e/both"
        resolver.ingest(EntityDescription(uri, {"p": ["x"]}, source="one"), 0)
        resolver.ingest(EntityDescription(uri, {"p": ["x"]}, source="two"), 1)
        entity_id = resolver.store.interner.id_of(uri)
        assert resolver.context._source[entity_id] == "one"  # first home wins
        resolver.delete(uri)
        assert entity_id not in resolver.context._home
        assert entity_id not in resolver.context._source


class TestMatchGraphFollowsDeletes:
    """A retracted description takes its match decisions with it."""

    @staticmethod
    def resolver_with_fillers() -> StreamResolver:
        resolver = StreamResolver(clean_clean=True, threshold=0.35)
        for i in range(5):
            resolver.ingest(EntityDescription(f"http://a/f{i}", {"p": [f"filler{i} one"]}), 0)
            resolver.ingest(EntityDescription(f"http://b/f{i}", {"p": [f"filler{i} two"]}), 1)
        return resolver

    def test_a_match_does_not_survive_its_own_delete(self):
        resolver = self.resolver_with_fillers()
        resolver.ingest(EntityDescription("http://a/x", {"p": ["alpha beta gamma"]}), 0)
        query = EntityDescription("http://b/y", {"p": ["alpha beta gamma"]})
        first = resolver.resolve(query, source=1)
        assert [m.uri for m in first.matches] == ["http://a/x"]
        assert first.matches[0].similarity == pytest.approx(1.0)

        assert resolver.delete("http://a/x")
        resolver.ingest(EntityDescription("http://a/x", {"p": ["zeta eta theta"]}), 0)
        assert resolver.similarity.cosine("http://a/x", "http://b/y") == 0.0
        again = resolver.resolve(query, source=1, ingest=False)
        assert again.matches == []
        graph, get = resolver.match_graph, resolver.store.interner.get
        assert get("http://b/y") not in graph.partner_ids
        assert pack_pair(get("http://a/x"), get("http://b/y")) not in graph.rows

    def test_insert_query_delete_cycles_leave_the_graph_empty(self):
        resolver = self.resolver_with_fillers()
        for i in range(2000):
            uri = f"http://b/q{i}"
            description = EntityDescription(uri, {"p": [f"filler{i % 5} one"]})
            result = resolver.resolve(description, source=1)
            assert result.comparisons >= 1
            assert resolver.delete(uri)
            graph = resolver.match_graph
            assert graph.match_count == 0
            assert not graph.rows and not graph.partner_ids
            # No stale key stays behind on the fillers, no dead row in
            # the columns.
            assert not graph._keys_of
            assert not graph.a and not graph.b and not graph.score and not graph.is_match
