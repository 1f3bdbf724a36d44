"""Tests for block filtering."""

from __future__ import annotations

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering, retained_keys, retention_limit


def blocks_for_entity_x() -> BlockCollection:
    """Entity x appears in blocks of very different sizes."""
    return BlockCollection(
        [
            Block("tiny", ["x", "a"]),
            Block("mid", ["x", "a", "b", "c"]),
            Block("huge", ["x"] + [f"n{i}" for i in range(30)]),
        ]
    )


class TestFiltering:
    def test_entity_leaves_largest_blocks(self):
        filtered = BlockFiltering(ratio=0.67).process(blocks_for_entity_x())
        # x keeps ceil(0.67*3)=2 smallest blocks: tiny and mid.
        assert "x" in filtered["tiny"].entities1
        assert "x" in filtered["mid"].entities1
        assert "huge" not in filtered or "x" not in filtered["huge"].entities1

    def test_ratio_one_keeps_everything(self):
        original = blocks_for_entity_x()
        filtered = BlockFiltering(ratio=1.0).process(original)
        assert filtered.total_assignments() == original.total_assignments()

    def test_every_entity_keeps_at_least_one_block(self):
        filtered = BlockFiltering(ratio=0.1).process(blocks_for_entity_x())
        index = filtered.entity_index()
        # x survives somewhere (its smallest block).
        assert index.get("x") == ["tiny"]

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            BlockFiltering(ratio=0.0)
        with pytest.raises(ValueError):
            BlockFiltering(ratio=1.2)

    def test_bipartite_sides_filtered_independently(self):
        blocks = BlockCollection(
            [
                Block("small", ["x"], ["y"]),
                Block("large", ["x", "a", "b"], ["y", "c", "d"]),
            ]
        )
        filtered = BlockFiltering(ratio=0.5).process(blocks)
        assert "small" in filtered
        # x and y keep only their smallest block.
        if "large" in filtered:
            assert "x" not in filtered["large"].entities1
            assert "y" not in (filtered["large"].entities2 or [])

    def test_degenerate_blocks_dropped(self):
        blocks = BlockCollection([Block("k", ["x", "y"]), Block("big", ["x", "y", "z"])])
        filtered = BlockFiltering(ratio=0.5).process(blocks)
        for block in filtered:
            assert block.cardinality() >= 1

    def test_filtering_shrinks_comparison_count(self, center_dataset):
        from repro.blocking.token_blocking import TokenBlocking

        blocks = TokenBlocking().build(center_dataset.kb1, center_dataset.kb2)
        filtered = BlockFiltering(ratio=0.5).process(blocks)
        assert filtered.total_comparisons() < blocks.total_comparisons()

    def test_determinism(self):
        a = BlockFiltering(ratio=0.5).process(blocks_for_entity_x())
        b = BlockFiltering(ratio=0.5).process(blocks_for_entity_x())
        assert a.keys() == b.keys()
        for key in a.keys():
            assert a[key].entities1 == b[key].entities1


def movie_blocks(movies) -> BlockCollection:
    from repro.blocking.token_blocking import TokenBlocking

    return TokenBlocking().build(*movies[:2])


class TestOnCorpora:
    @pytest.mark.parametrize("ratio", [0.5, 0.8, 1.0])
    def test_each_entity_keeps_its_smallest_blocks(self, movies, ratio):
        blocks = movie_blocks(movies)
        filtered = BlockFiltering(ratio=ratio).process(blocks)
        before = blocks.entity_index()
        for uri, keys in filtered.entity_index().items():
            allowed = retained_keys(
                before[uri], lambda key: blocks[key].cardinality(), ratio
            )
            assert set(keys) <= set(allowed)
            assert len(keys) <= retention_limit(len(before[uri]), ratio)

    def test_dirty_blocks_stay_non_degenerate(self, dirty_dataset):
        from repro.blocking.token_blocking import TokenBlocking

        blocks = TokenBlocking().build(dirty_dataset[0])
        filtered = BlockFiltering(ratio=0.6).process(blocks)
        assert all(not block.is_bipartite for block in filtered)
        assert all(len(block) >= 2 for block in filtered)
        assert filtered.distinct_comparisons() <= blocks.distinct_comparisons()

    @pytest.mark.parametrize("lower, higher", [(0.3, 0.5), (0.5, 0.8), (0.8, 1.0)])
    def test_a_lower_ratio_keeps_a_subset(self, movies, lower, higher):
        blocks = movie_blocks(movies)
        small = BlockFiltering(ratio=lower).process(blocks)
        large = BlockFiltering(ratio=higher).process(blocks)
        assert small.distinct_comparisons() <= large.distinct_comparisons()

    def test_ratio_one_is_the_identity_on_comparisons(self, movies):
        blocks = movie_blocks(movies)
        filtered = BlockFiltering(ratio=1.0).process(blocks)
        assert filtered.distinct_comparisons() == blocks.distinct_comparisons()


class TestRetention:
    @pytest.mark.parametrize(
        "key_count, ratio, expected",
        [(1, 0.1, 1), (3, 0.67, 2), (10, 0.8, 8), (10, 0.5, 5), (4, 1.0, 4), (5, 0.5, 3)],
    )
    def test_retention_limit(self, key_count, ratio, expected):
        assert retention_limit(key_count, ratio) == expected

    def test_ties_are_broken_on_the_key(self):
        sizes = {"b": 1, "a": 1, "c": 5}
        assert retained_keys(["c", "b", "a"], sizes.__getitem__, 0.67) == ["a", "b"]

    def test_signature_tracks_the_ratio(self):
        assert BlockFiltering(0.5).signature() == BlockFiltering(0.5).signature()
        assert BlockFiltering(0.5).signature() != BlockFiltering(0.8).signature()
