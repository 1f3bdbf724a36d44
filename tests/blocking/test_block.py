"""Tests for Block, BlockCollection and comparison identities."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.blocking.block import Block, BlockCollection, comparison_pair


class TestComparisonPair:
    def test_canonical_order(self):
        assert comparison_pair("b", "a") == ("a", "b")
        assert comparison_pair("a", "b") == ("a", "b")

    def test_self_comparison_rejected(self):
        with pytest.raises(ValueError):
            comparison_pair("a", "a")

    @given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
    def test_symmetry(self, a, b):
        if a == b:
            return
        assert comparison_pair(a, b) == comparison_pair(b, a)


class TestDirtyBlock:
    def test_cardinality(self):
        block = Block("k", ["a", "b", "c"])
        assert block.cardinality() == 3
        assert len(block) == 3
        assert not block.is_bipartite

    def test_comparisons_enumerated(self):
        block = Block("k", ["a", "b", "c"])
        assert set(block.comparisons()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_members_deduplicated(self):
        block = Block("k", ["a", "a", "b"])
        assert block.entities1 == ["a", "b"]

    def test_singleton_block(self):
        block = Block("k", ["a"])
        assert block.cardinality() == 0
        assert list(block.comparisons()) == []

    def test_implies_pair(self):
        pairs = set(Block("k", ["a", "b", "c"]).comparisons())
        assert ("a", "c") in pairs
        assert not any("x" in pair for pair in pairs)


class TestBipartiteBlock:
    def test_cardinality(self):
        block = Block("k", ["a", "b"], ["x", "y", "z"])
        assert block.cardinality() == 6
        assert len(block) == 5
        assert block.is_bipartite

    def test_comparisons_cross_only(self):
        block = Block("k", ["a", "b"], ["x"])
        assert set(block.comparisons()) == {("a", "x"), ("b", "x")}

    def test_one_sided_block_empty(self):
        block = Block("k", ["a", "b"], [])
        assert block.cardinality() == 0
        assert list(block.comparisons()) == []

    def test_entities_both_sides(self):
        block = Block("k", ["a"], ["x"])
        assert block.entities() == ["a", "x"]

    def test_implies_cross_pair(self):
        pairs = set(Block("k", ["a"], ["x"]).comparisons())
        assert pairs == {("a", "x")}

    def test_cardinality_subtracts_side_overlap(self):
        # 'b' sits on both sides; comparisons() skips the (b, b) pair, so
        # cardinality must not count it.
        block = Block("k", ["a", "b"], ["b", "x"])
        assert block.cardinality() == 3
        assert block.cardinality() == len(list(block.comparisons()))

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=5),
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=5),
    )
    def test_cardinality_consistent_with_comparisons(self, side1, side2):
        block = Block("k", side1, side2)
        assert block.cardinality() == len(list(block.comparisons()))


class TestBlockCollection:
    def collection(self) -> BlockCollection:
        return BlockCollection(
            [
                Block("k1", ["a", "b"]),
                Block("k2", ["b", "c", "d"]),
                Block("k3", ["a", "b"]),
            ]
        )

    def test_len_iter_getitem(self):
        blocks = self.collection()
        assert len(blocks) == 3
        assert blocks["k2"].cardinality() == 3
        assert "k1" in blocks

    def test_duplicate_keys_rejected(self):
        blocks = self.collection()
        with pytest.raises(ValueError):
            blocks.add(Block("k1", ["x", "y"]))

    def test_remove(self):
        blocks = self.collection()
        blocks.remove("k2")
        assert len(blocks) == 2
        assert "k2" not in blocks

    def test_total_comparisons_with_repetitions(self):
        assert self.collection().total_comparisons() == 1 + 3 + 1

    def test_distinct_comparisons_deduplicated(self):
        distinct = self.collection().distinct_comparisons()
        assert ("a", "b") in distinct
        assert len(distinct) == 4  # ab, bc, bd, cd

    def test_total_assignments(self):
        assert self.collection().total_assignments() == 2 + 3 + 2

    def test_entity_count(self):
        assert self.collection().entity_count() == 4

    def test_entity_index(self):
        blocks = self.collection()
        assert blocks.entity_index()["b"] == ["k1", "k2", "k3"]
        assert "ghost" not in blocks.entity_index()

    def test_blocks_in_common(self):
        index = self.collection().entity_index()
        assert set(index["a"]) & set(index["b"]) == {"k1", "k3"}
        assert not set(index["a"]) & set(index["d"])

    def test_index_invalidated_after_mutation(self):
        blocks = self.collection()
        assert "k3" in blocks.entity_index()["a"]
        blocks.remove("k3")
        assert blocks.entity_index()["a"] == ["k1"]

    def test_comparisons_with_repetitions(self):
        pairs = [(b.key, pair) for b in self.collection() for pair in b.comparisons()]
        assert ("k1", ("a", "b")) in pairs
        assert ("k3", ("a", "b")) in pairs
        assert len(pairs) == 5
