"""Property-based tests of blocking invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.blocking.block import comparison_pair
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.tokenizer import Tokenizer

# Small pseudo-word values so collisions actually happen.
words = st.sampled_from(["alpha", "beta", "gamma", "delta", "nile", "kudu", "lima"])
values = st.lists(words, min_size=1, max_size=4).map(" ".join)


@st.composite
def collections(draw, max_size=12):
    count = draw(st.integers(2, max_size))
    descriptions = []
    for i in range(count):
        attrs = {}
        for prop in range(draw(st.integers(1, 3))):
            attrs[f"p{prop}"] = [draw(values)]
        descriptions.append(
            EntityDescription(f"http://e/{i}", attrs, source="kb")
        )
    return EntityCollection(descriptions, name="kb")


TOKENIZER = Tokenizer(include_uri_infix=False)


class TestTokenBlockingProperties:
    @settings(max_examples=40, deadline=None)
    @given(collections())
    def test_pairs_sharing_a_token_are_covered(self, collection):
        blocks = TokenBlocking(TOKENIZER).build(collection)
        covered = blocks.distinct_comparisons()
        descriptions = list(collection)
        for i in range(len(descriptions)):
            for j in range(i + 1, len(descriptions)):
                a, b = descriptions[i], descriptions[j]
                shared = TOKENIZER.token_set(a) & TOKENIZER.token_set(b)
                if shared:
                    assert comparison_pair(a.uri, b.uri) in covered

    @settings(max_examples=40, deadline=None)
    @given(collections())
    def test_blocks_contain_only_key_holders(self, collection):
        blocks = TokenBlocking(TOKENIZER).build(collection)
        for block in blocks:
            for uri in block.entities():
                assert block.key in TOKENIZER.token_set(collection[uri])

    @settings(max_examples=40, deadline=None)
    @given(collections())
    def test_no_self_comparisons(self, collection):
        blocks = TokenBlocking(TOKENIZER).build(collection)
        for left, right in blocks.distinct_comparisons():
            assert left != right


class TestPostProcessingProperties:
    @settings(max_examples=30, deadline=None)
    @given(collections(), st.floats(0.1, 1.0))
    def test_filtering_never_adds_comparisons(self, collection, ratio):
        blocks = TokenBlocking(TOKENIZER).build(collection)
        filtered = BlockFiltering(ratio=ratio).process(blocks)
        assert filtered.distinct_comparisons() <= blocks.distinct_comparisons()

    @settings(max_examples=30, deadline=None)
    @given(collections(), st.integers(1, 50))
    def test_purging_never_adds_comparisons(self, collection, cardinality):
        blocks = TokenBlocking(TOKENIZER).build(collection)
        purged = BlockPurging(max_cardinality=cardinality).process(blocks)
        assert purged.distinct_comparisons() <= blocks.distinct_comparisons()
        for block in purged:
            assert block.cardinality() <= cardinality

    @settings(max_examples=30, deadline=None)
    @given(collections())
    def test_adaptive_purging_is_idempotent(self, collection):
        blocks = TokenBlocking(TOKENIZER).build(collection)
        once = BlockPurging().process(blocks)
        twice = BlockPurging().process(once)
        assert once.keys() == twice.keys()
