"""Equivalence: the columnar int-id graph == the string-tuple oracle.

The array path must be *bit-identical*, not approximately equal: pruning
schemes compare weights against thresholds and each other, so even a
last-ulp drift could flip a survivor.  Every weighting scheme and every
pruning scheme is exercised on both a clean-clean (center synthetic) and
a dirty workload.
"""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.metablocking.graph import BlockingGraph, pair_table_for
from repro.metablocking.pruning import PRUNERS
from repro.metablocking.weighting import ARCS, SCHEMES

from .string_graph_oracle import (
    reference_edges,
    reference_pair_statistics,
    reference_prune,
    sorted_edges,
)


def _build_blocks(kb1, kb2=None):
    blocks = TokenBlocking().build(kb1, kb2)
    blocks = BlockPurging().process(blocks)
    return BlockFiltering().process(blocks)


@pytest.fixture(scope="module")
def center_blocks(center_dataset):
    return _build_blocks(center_dataset.kb1, center_dataset.kb2)


@pytest.fixture(scope="module")
def dirty_blocks(dirty_dataset):
    collection, _ = dirty_dataset
    return _build_blocks(collection)


def _graph_pair(blocks, scheme_name):
    """The production graph and the oracle's pair → weight map."""
    fast = BlockingGraph(blocks, registry.create("weighting", scheme_name))
    slow = reference_edges(blocks, registry.create("weighting", scheme_name))
    return fast, slow


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestWeightEquivalence:
    def test_center_weights_bit_identical(self, center_blocks, scheme_name):
        fast, slow = _graph_pair(center_blocks, scheme_name)
        assert fast.materialize() == slow

    def test_dirty_weights_bit_identical(self, dirty_blocks, scheme_name):
        fast, slow = _graph_pair(dirty_blocks, scheme_name)
        assert fast.materialize() == slow

    def test_edge_iteration_order_identical(self, center_blocks, scheme_name):
        fast, slow = _graph_pair(center_blocks, scheme_name)
        # Same insertion order too: adjacency construction (and thus any
        # float sums over neighbour lists) must agree between the paths.
        assert list(fast.materialize()) == list(slow)
        assert list(fast.edges()) == sorted_edges(slow)


@pytest.mark.parametrize("pruner_name", sorted(PRUNERS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestPruningEquivalence:
    def test_center_pruned_edges_identical(self, center_blocks, scheme_name, pruner_name):
        fast = BlockingGraph(center_blocks, registry.create("weighting", scheme_name))
        pruner = registry.create("pruner", pruner_name)
        assert pruner.prune(fast) == reference_prune(
            center_blocks, registry.create("weighting", scheme_name), pruner
        )

    def test_dirty_pruned_edges_identical(self, dirty_blocks, scheme_name, pruner_name):
        fast = BlockingGraph(dirty_blocks, registry.create("weighting", scheme_name))
        pruner = registry.create("pruner", pruner_name)
        assert pruner.prune(fast) == reference_prune(
            dirty_blocks, registry.create("weighting", scheme_name), pruner
        )


class TestStatisticsEquivalence:
    def test_pair_table_statistics_match_reference(self, center_blocks):
        table = pair_table_for(center_blocks)
        reference = reference_pair_statistics(center_blocks)
        uris = center_blocks.interner().uri_table()
        translated = {
            (uris[id_a], uris[id_b]): (count, arcs)
            for id_a, id_b, count, arcs in zip(
                table.ids_a.tolist(), table.ids_b.tolist(),
                table.common.tolist(), table.arcs.tolist(),
            )
        }
        assert translated == reference
        assert table.pairs == list(translated) == list(reference)

    def test_top_edges_heap_matches_full_ranking(self, center_blocks):
        heap_graph = BlockingGraph(center_blocks, ARCS())
        sort_graph = BlockingGraph(center_blocks, ARCS())
        for count in (1, 5, 50, 10**6):
            top = heap_graph.top_edges(count)
            assert top == sort_graph.ranked_edges()[:count]
