"""Tests for the blocking graph."""

from __future__ import annotations

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.metablocking.graph import BlockingGraph, mean_weight
from repro.metablocking.weighting import ARCS, CBS

from .string_graph_oracle import graph_weights


def blocks() -> BlockCollection:
    return BlockCollection(
        [
            Block("k1", ["a", "b"]),          # 1 comparison: (a,b)
            Block("k2", ["a", "b", "c"]),     # 3 comparisons
            Block("k3", ["c", "d"]),          # 1 comparison
        ]
    )


#: every distinct pair of :func:`blocks`, in first-occurrence (= URI) order
ALL_PAIRS = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]


class TestMaterialization:
    def test_edge_count(self):
        graph = BlockingGraph(blocks(), CBS())
        # Distinct pairs: ab, ac, bc, cd
        assert len(graph.materialize()) == 4

    def test_cbs_weights(self):
        weights = graph_weights(BlockingGraph(blocks(), CBS()))
        assert weights == {("a", "b"): 2.0, ("a", "c"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0}

    def test_arcs_weights(self):
        weights = graph_weights(BlockingGraph(blocks(), ARCS()))
        # (a,b): 1/1 + 1/3 ; (c,d): 1/1 ; (a,c): 1/3
        assert weights[("a", "b")] == pytest.approx(1 + 1 / 3)
        assert weights[("c", "d")] == pytest.approx(1.0)
        assert weights[("a", "c")] == pytest.approx(1 / 3)

    def test_absent_edge_weight_zero(self):
        # An absent pair has no row, hence no weight: present, reversed,
        # never-co-occurring and unknown pairs.
        graph = BlockingGraph(blocks(), CBS())
        table = graph.pair_table()
        pairs = [("a", "b"), ("b", "a"), ("a", "d"), ("a", "ghost")]
        rows = table.rows_of(graph.blocks.interner(), pairs)
        assert rows.tolist()[1:] == [-1, -1, -1]
        assert graph.weights[rows[0]] == 2.0

    def test_materialize_cached(self):
        graph = BlockingGraph(blocks(), CBS())
        assert graph.materialize() is graph.materialize()

    def test_edges_deterministic_order(self):
        # Rows follow first occurrence over the blocks, on every build.
        tables = [BlockingGraph(blocks(), CBS()).pair_table() for _ in range(2)]
        assert [table.pairs for table in tables] == [ALL_PAIRS] * 2


class TestAccessors:
    def test_mean_weight(self):
        assert mean_weight(BlockingGraph(blocks(), CBS()).weights) == pytest.approx(5 / 4)

    def test_nodes(self):
        table = BlockingGraph(blocks(), CBS()).pair_table()
        endpoints = {*table.ids_a.tolist(), *table.ids_b.tolist()}
        assert sorted(table.uris[i] for i in endpoints) == ["a", "b", "c", "d"]
        # uri_rank orders ids as their URIs sort
        by_rank = sorted(endpoints, key=table.uri_rank.__getitem__)
        assert by_rank == sorted(endpoints, key=table.uris.__getitem__)

    def test_empty_graph(self):
        graph = BlockingGraph(BlockCollection(), CBS())
        assert len(graph.materialize()) == 0
        assert mean_weight(graph.weights) == 0.0

    def test_top_edges(self):
        graph = BlockingGraph(blocks(), CBS())
        top = graph.top_edges(1)
        assert len(top) == 1
        assert top[0].pair == ("a", "b")

    def test_top_edges_ties_broken_by_pair(self):
        graph = BlockingGraph(blocks(), CBS())
        top = graph.top_edges(3)
        assert [e.pair for e in top] == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_top_edges_ties_at_the_cut(self):
        # Three edges tie at weight 1 for the second place: the cut ranks
        # all of them by pair and keeps the first.
        graph = BlockingGraph(blocks(), CBS())
        assert [e.pair for e in graph.top_edges(2)] == [("a", "b"), ("a", "c")]

    def test_top_edges_beyond_the_edge_count(self):
        graph = BlockingGraph(blocks(), CBS())
        assert [e.pair for e in graph.top_edges(10)] == ALL_PAIRS
        assert graph.top_edges(0) == []

    def test_bipartite_blocks_supported(self):
        bipartite = BlockCollection([Block("k", ["a"], ["x", "y"])])
        assert graph_weights(BlockingGraph(bipartite, CBS())) == {("a", "x"): 1.0, ("a", "y"): 1.0}
