"""Tests for the edge-weighting schemes."""

from __future__ import annotations

import math

import pytest

from repro.api import registry
from repro.blocking.block import Block, BlockCollection
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.weighting import (
    ARCS,
    CBS,
    ECBS,
    EJS,
    JS,
    SCHEMES,
)

from .string_graph_oracle import graph_weights


def blocks() -> BlockCollection:
    return BlockCollection(
        [
            Block("k1", ["a", "b"]),
            Block("k2", ["a", "b", "c"]),
            Block("k3", ["b", "c"]),
            Block("k4", ["d", "e"]),
        ]
    )


def weights_for(scheme) -> dict[tuple[str, str], float]:
    return graph_weights(BlockingGraph(blocks(), scheme))


class TestCBS:
    def test_counts_common_blocks(self):
        weights = weights_for(CBS())
        assert weights[("a", "b")] == 2.0
        assert weights[("b", "c")] == 2.0
        assert weights[("a", "c")] == 1.0
        assert weights[("d", "e")] == 1.0


class TestECBS:
    def test_discounts_promiscuous_entities(self):
        weights = weights_for(ECBS())
        # d,e appear in exactly one block each -> large IDF factors.
        # b appears in three blocks -> discounted.
        assert weights[("d", "e")] > weights[("a", "c")]

    def test_formula(self):
        weights = weights_for(ECBS())
        total = 4
        expected = 2.0 * math.log((total + 1) / 2) * math.log((total + 1) / 3)
        assert weights[("a", "b")] == pytest.approx(expected)


class TestJS:
    def test_jaccard_of_block_sets(self):
        weights = weights_for(JS())
        # a in {k1,k2}, b in {k1,k2,k3}: common 2, union 3.
        assert weights[("a", "b")] == pytest.approx(2 / 3)
        assert weights[("d", "e")] == pytest.approx(1.0)

    def test_bounded_by_one(self):
        assert all(0.0 <= w <= 1.0 for w in weights_for(JS()).values())


class TestEJS:
    def test_boosts_low_degree_nodes(self):
        weights = weights_for(EJS())
        # (d,e) has JS=1 and both endpoints have degree 1 -> strongest edge.
        assert max(weights, key=weights.get) == ("d", "e")

    def test_zero_js_stays_zero(self):
        scheme = EJS()
        stats = {("x", "y"): (0, 0.0)}
        collection = BlockCollection([Block("k", ["x", "y"])])
        scheme.prepare(collection, stats)
        assert scheme.weight("x", "y", 0, 0.0) == 0.0


class TestARCS:
    def test_small_blocks_count_more(self):
        weights = weights_for(ARCS())
        assert weights[("a", "b")] == pytest.approx(1 / 1 + 1 / 3)
        assert weights[("a", "c")] == pytest.approx(1 / 3)

    def test_selective_evidence_ranks_higher(self):
        weights = weights_for(ARCS())
        assert weights[("d", "e")] > weights[("a", "c")]


class TestChiSquare:
    def test_cooccurring_pair_beats_chance(self):
        from repro.metablocking.weighting import ChiSquare

        weights = weights_for(ChiSquare())
        # (d,e) co-occur in their only block: far above independence.
        assert weights[("d", "e")] > weights[("a", "c")]

    def test_non_negative(self):
        from repro.metablocking.weighting import ChiSquare

        assert all(w >= 0.0 for w in weights_for(ChiSquare()).values())


class TestRegistry:
    def test_all_schemes_registered(self):
        assert set(SCHEMES) == {"CBS", "ECBS", "JS", "EJS", "ARCS", "X2"}

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_weights_non_negative(self, name):
        weights = weights_for(registry.create("weighting", name))
        assert all(w >= 0.0 for w in weights.values())
