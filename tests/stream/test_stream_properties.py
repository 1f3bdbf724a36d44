"""Property tests: arrival order and duplicates never break equivalence.

The streaming layer promises convergence: whatever order descriptions
arrive in — shuffled, duplicated, or split so one entity's attributes
trickle in across several merge inserts — the streamed state equals the
batch pipeline over the final merged corpus.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.token_blocking import TokenBlocking
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.stream import StreamResolver

from metablocking.string_graph_oracle import reference_pair_statistics

TOKENS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]


descriptions = st.builds(
    lambda i, props: EntityDescription(
        f"http://e/{i}",
        {"p": [" ".join(sorted(props))]} if props else {"q": ["solo"]},
    ),
    st.integers(0, 9),
    st.sets(st.sampled_from(TOKENS), max_size=4),
)


def _merged_collection(arrivals: list[EntityDescription]) -> EntityCollection:
    """The final corpus the batch pipeline would load: merge by URI."""
    collection = EntityCollection(name="stream")
    for description in arrivals:
        collection.add(description.copy())
    return collection


def _streamed(arrivals: list[EntityDescription]) -> StreamResolver:
    resolver = StreamResolver()
    for description in arrivals:
        resolver.ingest(description.copy())
    return resolver


def _assert_equivalent(resolver: StreamResolver, collection: EntityCollection):
    batch = TokenBlocking().build(collection)
    snapshot = resolver.index.snapshot()
    assert snapshot.keys() == batch.keys()
    for key in batch.keys():
        assert snapshot[key].entities1 == batch[key].entities1
    reference = reference_pair_statistics(batch)
    assert resolver.pairs.as_reference_stats() == reference


@settings(max_examples=60, deadline=None)
@given(st.lists(descriptions, min_size=1, max_size=14))
def test_any_arrival_order_matches_batch(arrivals):
    """Shuffled, interleaved, whatever: stream state == batch state."""
    _assert_equivalent(_streamed(arrivals), _merged_collection(arrivals))


@settings(max_examples=40, deadline=None)
@given(st.lists(descriptions, min_size=1, max_size=8), st.data())
def test_duplicate_inserts_are_idempotent(arrivals, data):
    """Re-inserting any prefix of the stream changes nothing."""
    resolver = _streamed(arrivals)
    before = resolver.pairs.as_reference_stats()
    duplicates = data.draw(
        st.lists(st.sampled_from(arrivals), max_size=len(arrivals))
    )
    for description in duplicates:
        resolver.ingest(description.copy())
    assert resolver.pairs.as_reference_stats() == before
    _assert_equivalent(resolver, _merged_collection(arrivals))


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from(TOKENS), min_size=2, max_size=5),
    st.lists(descriptions, min_size=1, max_size=8),
    st.integers(1, 4),
)
def test_attribute_trickle_merges_like_batch(tokens, others, split):
    """One entity arriving in pieces equals that entity arriving whole.

    This is the merge-straggler path: a late piece can grant an entity a
    blocking key that younger entities already claimed, forcing the lazy
    posting re-sort to restore batch (arrival-rank) member order.
    """
    token_list = sorted(tokens)
    pieces = [
        EntityDescription(
            "http://e/split", {f"p{index}": [token]}
        )
        for index, token in enumerate(token_list)
    ]
    # Stream: first piece early, remaining pieces after the other entities.
    arrivals = pieces[:split] + others + pieces[split:]
    whole = EntityDescription(
        "http://e/split",
        {f"p{index}": [token] for index, token in enumerate(token_list)},
    )
    _assert_equivalent(
        _streamed(arrivals), _merged_collection(arrivals)
    )
    # And the final corpus really is "entity arrived whole".
    merged = _merged_collection(arrivals)
    assert merged["http://e/split"] == whole
