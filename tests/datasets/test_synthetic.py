"""Tests for the LOD-cloud workload synthesizer."""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import (
    CENTER_PROFILE,
    PERIPHERY_PROFILE,
    PerturbationProfile,
    SyntheticConfig,
    synthesize_dirty,
    synthesize_pair,
)
from repro.matching.similarity import SimilarityIndex


class TestConfigValidation:
    def test_invalid_entities(self):
        with pytest.raises(ValueError):
            synthesize_pair(SyntheticConfig(entities=0))

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            synthesize_pair(SyntheticConfig(overlap=1.5))

    def test_invalid_profile(self):
        bad = PerturbationProfile(attribute_keep=2.0)
        with pytest.raises(ValueError):
            synthesize_pair(SyntheticConfig(profile=bad))

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            synthesize_pair(SyntheticConfig(group_size=(3, 1)))


class TestCleanCleanGeneration:
    def test_sizes_match_overlap(self):
        config = SyntheticConfig(entities=100, overlap=0.6, seed=3)
        dataset = synthesize_pair(config)
        assert len(dataset.gold.matches) == 60
        # Each KB holds the shared 60 plus half of the 40 exclusive.
        assert len(dataset.kb1) == 80
        assert len(dataset.kb2) == 80

    def test_determinism(self):
        config = SyntheticConfig(entities=50, seed=9)
        a = synthesize_pair(config)
        b = synthesize_pair(config)
        assert a.kb1.uris() == b.kb1.uris()
        assert a.gold.matches == b.gold.matches
        for uri in a.kb1.uris():
            assert a.kb1[uri] == b.kb1[uri]

    def test_seed_changes_output(self):
        a = synthesize_pair(SyntheticConfig(entities=50, seed=1))
        b = synthesize_pair(SyntheticConfig(entities=50, seed=2))
        assert a.kb1.uris() != b.kb1.uris()

    def test_sources_stamped(self):
        dataset = synthesize_pair(SyntheticConfig(entities=20))
        assert all(d.source == "kb1" for d in dataset.kb1)
        assert all(d.source == "kb2" for d in dataset.kb2)

    def test_proprietary_vocabularies(self):
        dataset = synthesize_pair(SyntheticConfig(entities=20))
        props1 = {p for d in dataset.kb1 for p in d.properties()}
        props2 = {p for d in dataset.kb2 for p in d.properties()}
        assert props1.isdisjoint(props2)

    def test_relationships_materialized(self):
        dataset = synthesize_pair(SyntheticConfig(entities=100, group_size=(2, 4)))
        edges = sum(len(dataset.kb1.neighbors(u)) for u in dataset.kb1.uris())
        assert edges > 0

    def test_gold_clusters_are_cross_kb(self):
        dataset = synthesize_pair(SyntheticConfig(entities=50))
        for left, right in dataset.gold.matches:
            assert {dataset.kb1.get(left) is not None, dataset.kb2.get(left) is not None}
            sources = {
                (dataset.kb1.get(u) or dataset.kb2.get(u)).source for u in (left, right)
            }
            assert sources == {"kb1", "kb2"}

    def test_entity_graphs_reference_clusters(self):
        dataset = synthesize_pair(SyntheticConfig(entities=60, group_size=(2, 3)))
        cluster_count = len(dataset.gold.clusters)
        for graph in dataset.gold.entity_graphs:
            assert all(0 <= c < cluster_count for c in graph)

    def test_entity_of_maps_every_uri(self):
        dataset = synthesize_pair(SyntheticConfig(entities=30))
        for uri in dataset.kb1.uris() + dataset.kb2.uris():
            assert uri in dataset.entity_of


class TestProfiles:
    def profile_similarity(self, profile) -> float:
        config = SyntheticConfig(entities=80, overlap=0.8, seed=7, profile=profile)
        dataset = synthesize_pair(config)
        index = SimilarityIndex([dataset.kb1, dataset.kb2])
        values = [index.jaccard(a, b) for a, b in dataset.gold.matches]
        return sum(values) / len(values)

    def test_center_pairs_highly_similar(self):
        assert self.profile_similarity(CENTER_PROFILE) > 0.5

    def test_periphery_pairs_somehow_similar(self):
        periphery = self.profile_similarity(PERIPHERY_PROFILE)
        center = self.profile_similarity(CENTER_PROFILE)
        assert periphery < center
        assert periphery > 0.02  # still some common evidence

    def test_periphery_has_opaque_uris(self):
        dataset = synthesize_pair(
            SyntheticConfig(entities=80, seed=7, profile=PERIPHERY_PROFILE)
        )
        opaque = [u for u in dataset.kb1.uris() if "/node" in u]
        assert opaque  # name_bearing_uri < 1 produces some opaque URIs


class TestLodRegimes:
    """The generated workloads show the LOD properties the paper's
    motivation rests on: proprietary vocabularies, highly similar matches
    at the centre, low-evidence matches and sparser links at the
    periphery."""

    @staticmethod
    def gold_overlaps(dataset) -> tuple[list[float], int]:
        """Token Jaccard per gold pair, and how many pairs share at most
        two tokens (the "somehow similar" population)."""
        index = SimilarityIndex([dataset.kb1, dataset.kb2])
        pairs = sorted(dataset.gold.matches)
        low = sum(1 for a, b in pairs if len(index.common_tokens(a, b)) <= 2)
        return [index.jaccard(a, b) for a, b in pairs], low

    @staticmethod
    def density(collection) -> float:
        return collection.statistics().relationship_count / len(collection)

    @pytest.mark.parametrize("regime", ["center_dataset", "periphery_dataset"])
    def test_vocabularies_are_proprietary(self, request, regime):
        dataset = request.getfixturevalue(regime)
        props1 = {p for d in dataset.kb1 for p in d.properties()}
        props2 = {p for d in dataset.kb2 for p in d.properties()}
        assert props1 and props2
        assert props1.isdisjoint(props2)

    def test_center_matches_are_high_evidence(self, center_dataset):
        overlaps, low = self.gold_overlaps(center_dataset)
        assert sum(overlaps) / len(overlaps) > 0.5
        assert low <= 0.05 * len(overlaps)

    def test_periphery_has_low_evidence_matches(self, periphery_dataset):
        overlaps, low = self.gold_overlaps(periphery_dataset)
        assert low > 0
        assert min(overlaps) < 0.5

    def test_periphery_is_less_interlinked(self, center_dataset, periphery_dataset):
        # relation_keep is lower in the periphery profile.
        assert self.density(periphery_dataset.kb1) <= self.density(
            center_dataset.kb1
        )
        assert self.density(center_dataset.kb1) > 0


class TestDirtyGeneration:
    def test_duplicate_clusters(self):
        collection, gold = synthesize_dirty(
            SyntheticConfig(entities=40, seed=2), max_duplicates=3
        )
        assert len(collection) >= 40
        assert all(len(c) >= 2 for c in gold.clusters)

    def test_invalid_max_duplicates(self):
        with pytest.raises(ValueError):
            synthesize_dirty(SyntheticConfig(entities=10), max_duplicates=0)

    def test_determinism(self):
        a, gold_a = synthesize_dirty(SyntheticConfig(entities=30, seed=4))
        b, gold_b = synthesize_dirty(SyntheticConfig(entities=30, seed=4))
        assert a.uris() == b.uris()
        assert gold_a.matches == gold_b.matches

    def test_single_copy_allowed(self):
        collection, gold = synthesize_dirty(
            SyntheticConfig(entities=20, seed=2), max_duplicates=1
        )
        assert len(collection) == 20
        assert len(gold.matches) == 0
