"""The columnar blocking path against the per-``Block`` reference.

Token blocking, purging and filtering are array passes over one block
table; ``reference_blocking.py`` keeps the per-block loops they replaced.
Both are held ``==`` on keys, per-side member order, the interner, the
id arrays and the entity index: dirty and clean-clean inputs, a URI on
both sides, cardinality ties, an empty input and an input where every
block is purged.  The MapReduce token-blocking job is held to the same
reference.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.blocking import BlockCollection, BlockFiltering, BlockPurging, TokenBlocking
from repro.mapreduce import MapReduceEngine, parallel_token_blocking
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

from blocking.reference_blocking import (
    reference_build,
    reference_entity_index,
    reference_filter,
    reference_id_views,
    reference_purge,
)

SHARED = "http://s/shared"
#: few words, so keys collide and many blocks tie on cardinality
WORDS = ["alpha", "beta", "gamma", "delta", "ab", "x"]
URIS = [SHARED, "http://a/1", "http://a/2", "http://a/3", "http://b/1", "http://b/2"]
values = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
rows = st.lists(
    st.tuples(st.sampled_from(URIS), st.lists(values, max_size=2)), max_size=10
)
corpora = st.lists(rows, min_size=1, max_size=2)
cutoffs = st.sampled_from([None, 1, 2, 4])
ratios = st.sampled_from([0.3, 0.5, 0.8, 1.0])

THREE_ALIKE = [(f"http://a/{i}", ["alpha beta"]) for i in (1, 2, 3)]
BOTH_SIDES = [
    [(SHARED, ["alpha beta"]), ("http://a/1", ["alpha gamma"])],
    [(SHARED, ["alpha gamma"]), ("http://b/1", ["beta gamma"])],
]
#: one entity in four blocks of equal cardinality: filtering cuts a tie
TIES = [[("http://a/1", ["alpha beta gamma delta"]), ("http://a/2", ["alpha beta gamma delta"])]]


def collection(name: str, kb_rows) -> EntityCollection:
    return EntityCollection(
        [EntityDescription(uri, {"p": list(v)}) for uri, v in kb_rows], name=name
    )


def layout(blocks):
    return [(block.key, block.entities1, block.entities2) for block in blocks]


def assert_matches(columnar, reference) -> None:
    assert layout(columnar) == layout(reference)
    uris, id_blocks = reference_id_views(reference)
    assert columnar.interner().uris() == uris
    assert columnar.id_blocks() == id_blocks
    arrays = columnar.id_arrays()
    for side, offsets, members in (
        (arrays.side1, arrays.offsets1, [ids1 for ids1, _, _ in id_blocks]),
        (arrays.side2, arrays.offsets2, [ids2 or [] for _, ids2, _ in id_blocks]),
    ):
        assert [
            side[start:stop].tolist() for start, stop in zip(offsets, offsets[1:])
        ] == members
    assert arrays.bipartite.tolist() == [ids2 is not None for _, ids2, _ in id_blocks]
    assert arrays.cardinality.tolist() == [card for *_, card in id_blocks]
    assert arrays.sides.tolist() == arrays.side1.tolist() + arrays.side2.tolist()
    assert columnar.entity_index() == reference_entity_index(reference)
    assert columnar.total_comparisons() == sum(card for *_, card in id_blocks)


@settings(max_examples=150, deadline=None)
@given(corpora, cutoffs, ratios, st.booleans())
@example([[]], None, 0.8, True)
@example([[], []], None, 0.8, True)
@example([THREE_ALIKE], 1, 0.8, True)
@example([THREE_ALIKE, THREE_ALIKE], 2, 0.8, True)
@example(BOTH_SIDES, None, 0.5, True)
@example(BOTH_SIDES, None, 0.5, False)
@example(TIES, None, 0.5, True)
@example(TIES, None, 0.3, False)
def test_columnar_blocking_equals_the_per_block_reference(
    corpus, max_cardinality, ratio, drop_singletons
):
    kbs = [collection(f"kb{i}", kb_rows) for i, kb_rows in enumerate(corpus)]
    blocker = TokenBlocking()
    raw = blocker.build(*kbs, drop_singletons=drop_singletons)
    expected_raw = reference_build(blocker, *kbs, drop_singletons=drop_singletons)
    assert_matches(raw, expected_raw)

    purged = BlockPurging(max_cardinality).process(raw)
    expected_purged = reference_purge(expected_raw, max_cardinality)
    assert_matches(purged, expected_purged)

    filtered = BlockFiltering(ratio).process(purged)
    assert_matches(filtered, reference_filter(expected_purged, ratio))
    # Ties break on the key, not on the block's position.
    backwards = BlockCollection(reversed(purged.blocks()))
    assert_matches(
        BlockFiltering(ratio).process(backwards),
        reference_filter(expected_purged[::-1], ratio),
    )

    parallel, _ = parallel_token_blocking(
        MapReduceEngine(workers=2), *kbs, drop_singletons=drop_singletons
    )
    assert_matches(parallel, expected_raw)


def test_every_block_purged():
    kbs = [collection("kb", THREE_ALIKE)]
    purged = BlockPurging(max_cardinality=1).process(TokenBlocking().build(*kbs))
    assert len(purged) == 0 and len(purged.interner()) == 0
    assert_matches(purged, [])
    assert_matches(BlockFiltering().process(purged), [])


def test_a_uri_on_both_sides_is_one_entity_in_every_stage():
    kbs = [collection(f"kb{i}", kb_rows) for i, kb_rows in enumerate(BOTH_SIDES)]
    raw = TokenBlocking().build(*kbs)
    alpha = raw["alpha"]
    assert SHARED in alpha.entities1 and SHARED in alpha.entities2
    # (shared, shared) is not a comparison
    assert raw.id_arrays().cardinality[raw.keys().index("alpha")] == 2 * 1 - 1
    assert raw.interner().uris().count(SHARED) == 1
    assert_matches(raw, reference_build(TokenBlocking(), *kbs))
