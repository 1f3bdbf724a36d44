"""Property tests: the shard merge plan is bit-identical to one store.

:class:`~repro.serving.local.LocalTier` executes the router's exact
query plan — split candidates by partition owner, weigh per partition,
merge, prune, match — over one in-process replica.  Hypothesis drives
shard counts (1–8), merge interleavings, weighting schemes and pruners
through it and demands byte-equality with a plain single-store
:class:`~repro.stream.resolver.StreamResolver` on the same events; a
separate case pins the degradation contract (down partitions drop their
candidates, coverage is accounted, nothing is silent).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.description import EntityDescription
from repro.serving import LocalTier, owner_of
from repro.stream import StreamResolver
from repro.stream.store import StreamingEntityStore

SCHEMES = ["CBS", "ECBS", "JS", "EJS", "ARCS", "X2"]
PRUNERS = ["CNP", "WNP", "none"]
TOKENS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]


descriptions = st.builds(
    lambda i, props: EntityDescription(
        f"http://e/{i}",
        {"p": [" ".join(sorted(props))]} if props else {"q": ["solo"]},
    ),
    st.integers(0, 11),
    st.sets(st.sampled_from(TOKENS), max_size=4),
)


def _resolve_both(tier, resolver, arrivals, scheme, pruner, orders):
    """Resolve every arrival on both sides, asserting bit-identity."""
    for position, description in enumerate(arrivals):
        order = orders[position % len(orders)] if orders else None
        got = tier.resolve(
            description.copy(), scheme=scheme, pruner=pruner, order=order
        )
        want = resolver.resolve(description.copy(), scheme=scheme, pruner=pruner)
        assert got.matches == want.matches
        assert got.candidates == want.candidates
        assert got.scheduled == want.scheduled
        assert got.comparisons == want.comparisons
        assert got.skipped_decided == want.skipped_decided
        assert not got.degraded
        assert got.coverage == 1.0


@settings(max_examples=40, deadline=None)
@given(
    arrivals=st.lists(descriptions, min_size=1, max_size=12),
    n_partitions=st.integers(1, 8),
    scheme=st.sampled_from(SCHEMES),
    pruner=st.sampled_from(PRUNERS),
    data=st.data(),
)
def test_merge_is_bit_identical_for_any_interleaving(
    arrivals, n_partitions, scheme, pruner, data
):
    tier = LocalTier(n_partitions, clean_clean=False)
    resolver = StreamResolver(StreamingEntityStore(sources=("stream",)))
    orders = [
        data.draw(st.permutations(range(n_partitions)))
        for _ in range(min(3, len(arrivals)))
    ]
    _resolve_both(tier, resolver, arrivals, scheme, pruner, orders)


def test_wnp_mean_does_not_follow_the_merge_order():
    """A star whose χ² neighbourhood mean, folded in partition order
    instead of entity-id order, lands on the other side of a weight."""
    arrivals = [
        EntityDescription(f"http://e/{i}", {"p": [tokens]})
        for i, tokens in (
            (2, "alpha beta delta sigma"),
            (0, "alpha"),
            (1, "alpha delta gamma sigma"),
            (10, "alpha beta gamma"),
        )
    ]
    tier = LocalTier(4, clean_clean=False)
    resolver = StreamResolver(StreamingEntityStore(sources=("stream",)))
    _resolve_both(tier, resolver, arrivals, "X2", "WNP", [])


@settings(max_examples=25, deadline=None)
@given(
    arrivals=st.lists(descriptions, min_size=2, max_size=10),
    scheme=st.sampled_from(SCHEMES),
    down=st.integers(0, 3),
)
def test_degraded_partition_drops_only_its_candidates(arrivals, scheme, down):
    """With one partition down: degraded flag set, coverage accounted,
    and the merge equals a full merge minus that partition's owners."""
    n_partitions = 4
    healthy = LocalTier(n_partitions, clean_clean=False)
    degraded = LocalTier(n_partitions, clean_clean=False)
    degraded.down = {down}
    for description in arrivals:
        healthy.ingest(description.copy())
        degraded.ingest(description.copy())
    for description in arrivals:
        full = healthy.resolve(description.copy(), scheme=scheme, ingest=False)
        partial = degraded.resolve(
            description.copy(), scheme=scheme, ingest=False
        )
        assert partial.degraded
        assert partial.coverage == pytest.approx(3 / 4)
        assert partial.missing_partitions == (down,)
        expected = {
            entity_id: weight
            for entity_id, weight in full.weights.items()
            if owner_of(entity_id, n_partitions) != down
        }
        assert partial.weights == expected


def test_all_partitions_down_yields_empty_but_labelled_result():
    tier = LocalTier(2, clean_clean=False)
    tier.ingest(EntityDescription("http://e/1", {"p": ["alpha beta"]}))
    tier.down = {0, 1}
    result = tier.resolve(
        EntityDescription("http://e/2", {"p": ["alpha beta"]})
    )
    assert result.degraded
    assert result.coverage == 0.0
    assert result.missing_partitions == (0, 1)
    assert result.matches == []
    assert result.weights == {}


def test_order_must_be_a_permutation():
    tier = LocalTier(3, clean_clean=False)
    with pytest.raises(ValueError, match="permutation"):
        tier.resolve(
            EntityDescription("http://e/1", {"p": ["alpha"]}), order=[0, 1]
        )


def test_bad_source_and_bad_names_fail_before_the_tier_moves():
    """Same early checks as the single-store resolver, on any store size."""
    tier = LocalTier(2)
    description = EntityDescription("http://e/1", {"p": ["alpha"]})
    with pytest.raises(IndexError):
        tier.ingest(description, -1)
    for bad in ({"scheme": "nope"}, {"pruner": "nope"}):
        with pytest.raises(KeyError, match="nope"):
            tier.resolve(description, **bad)
    assert len(tier.store) == 0 and tier.store.version == 0
