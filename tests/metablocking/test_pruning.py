"""Tests for the pruning schemes."""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.blocking.block import Block, BlockCollection
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.pruning import (
    CEP,
    CNP,
    PRUNERS,
    ReciprocalCNP,
    ReciprocalWNP,
    WEP,
    WNP,
)
from repro.metablocking.weighting import CBS

from .string_graph_oracle import graph_weights


def graph() -> BlockingGraph:
    blocks = BlockCollection(
        [
            Block("k1", ["a", "b"]),
            Block("k2", ["a", "b", "c"]),
            Block("k3", ["b", "c"]),
            Block("k4", ["c", "d"]),
        ]
    )
    return BlockingGraph(blocks, CBS())
    # CBS weights: ab=2, bc=2, ac=1, cd=1


class TestWEP:
    def test_keeps_above_average(self):
        survivors = WEP().prune(graph())
        pairs = {edge.pair for edge in survivors}
        # Mean = (2+2+1+1)/4 = 1.5 -> keep ab, bc.
        assert pairs == {("a", "b"), ("b", "c")}

    def test_threshold_factor(self):
        survivors = WEP(threshold_factor=0.1).prune(graph())
        assert len(survivors) == 4

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            WEP(threshold_factor=0.0)

    def test_empty_graph(self):
        empty = BlockingGraph(BlockCollection(), CBS())
        assert WEP().prune(empty) == []


class TestCEP:
    def test_explicit_k(self):
        survivors = CEP(k=2).prune(graph())
        assert [edge.pair for edge in survivors] == [("a", "b"), ("b", "c")]

    def test_default_budget_from_assignments(self):
        g = graph()
        # total assignments = 2+3+2+2 = 9 -> K = 4.
        assert CEP().budget(g) == 4
        assert len(CEP().prune(g)) == 4

    def test_k_larger_than_edges(self):
        survivors = CEP(k=100).prune(graph())
        assert len(survivors) == 4

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            CEP(k=0)

    def test_deterministic_order(self):
        survivors = CEP(k=4).prune(graph())
        weights = [edge.weight for edge in survivors]
        assert weights == sorted(weights, reverse=True)


class TestWNP:
    def test_union_semantics(self):
        survivors = WNP().prune(graph())
        pairs = {edge.pair for edge in survivors}
        # Node thresholds: a:1.5, b:5/3, c:4/3, d:1.
        # ab kept by a and b; bc kept by b and c; cd kept by d.
        assert pairs == {("a", "b"), ("b", "c"), ("c", "d")}

    def test_reciprocal_requires_both(self):
        survivors = ReciprocalWNP().prune(graph())
        pairs = {edge.pair for edge in survivors}
        # cd: kept by d (1 >= 1) but not by c (1 < 4/3) -> dropped.
        assert pairs == {("a", "b"), ("b", "c")}

    def test_reciprocal_subset_of_union(self):
        union = {e.pair for e in WNP().prune(graph())}
        reciprocal = {e.pair for e in ReciprocalWNP().prune(graph())}
        assert reciprocal <= union


class TestCNP:
    def test_explicit_k(self):
        survivors = CNP(k=1).prune(graph())
        pairs = {edge.pair for edge in survivors}
        # Each node keeps its single best edge (union semantics):
        # a->ab, b->ab, c->bc, d->cd.
        assert pairs == {("a", "b"), ("b", "c"), ("c", "d")}

    def test_reciprocal_k1(self):
        survivors = ReciprocalCNP(k=1).prune(graph())
        pairs = {edge.pair for edge in survivors}
        assert pairs == {("a", "b")}

    def test_default_budget(self):
        g = graph()
        # assignments=9, entities=4 -> ceil(2.25)-1 = 2.
        assert CNP().node_budget(g) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            CNP(k=0)

    def test_reciprocal_subset_of_union(self):
        union = {e.pair for e in CNP(k=2).prune(graph())}
        reciprocal = {e.pair for e in ReciprocalCNP(k=2).prune(graph())}
        assert reciprocal <= union


class TestRegistry:
    def test_all_pruners_registered(self):
        assert set(PRUNERS) == {
            "WEP",
            "CEP",
            "WNP",
            "CNP",
            "ReciprocalWNP",
            "ReciprocalCNP",
        }

    @pytest.mark.parametrize("name", sorted(PRUNERS))
    def test_pruning_reduces_or_preserves_edges(self, name):
        g = graph()
        survivors = registry.create("pruner", name).prune(g)
        assert len(survivors) <= len(g.materialize())

    @pytest.mark.parametrize("name", sorted(PRUNERS))
    def test_survivors_exist_in_graph(self, name):
        g = graph()
        edges = graph_weights(g)
        for edge in registry.create("pruner", name).prune(g):
            assert edge.pair in edges
            assert edge.weight == edges[edge.pair]
