"""Tests for match-graph clustering."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.matching.clustering import connected_components


class TestConnectedComponents:
    def test_chains_merge(self):
        clusters = connected_components([("a", "b"), ("b", "c"), ("x", "y")])
        assert frozenset({"a", "b", "c"}) in clusters
        assert frozenset({"x", "y"}) in clusters

    def test_largest_first(self):
        clusters = connected_components([("a", "b"), ("b", "c"), ("x", "y")])
        assert len(clusters[0]) >= len(clusters[1])

    def test_empty(self):
        assert connected_components([]) == []

    def test_single_pair(self):
        assert connected_components([("a", "b")]) == [frozenset({"a", "b"})]

    def test_star_is_one_cluster(self):
        clusters = connected_components([("c", "m1"), ("c", "m2"), ("c", "m3")])
        assert clusters == [frozenset({"c", "m1", "m2", "m3"})]

    def test_chains_through_members(self):
        # Unlike a center clustering, a member-to-member edge merges.
        clusters = connected_components([("a", "b"), ("c", "d"), ("b", "d")])
        assert clusters == [frozenset({"a", "b", "c", "d"})]

    def test_self_pair_is_not_a_cluster(self):
        assert connected_components([("a", "a")]) == []

    def test_repeated_and_reversed_pairs_change_nothing(self):
        once = connected_components([("a", "b"), ("x", "y")])
        again = connected_components([("a", "b"), ("b", "a"), ("x", "y"), ("a", "b")])
        assert set(again) == set(once)

    def test_accepts_any_iterable(self):
        pairs = ((f"a{i}", f"a{i + 1}") for i in range(3))
        assert connected_components(pairs) == [frozenset({"a0", "a1", "a2", "a3"})]


def reference_components(pairs):
    """Breadth-first closure over an adjacency map (the test oracle)."""
    adjacency: dict[str, set[str]] = {}
    for left, right in pairs:
        adjacency.setdefault(left, set()).add(right)
        adjacency.setdefault(right, set()).add(left)
    seen: set[str] = set()
    clusters = set()
    for start in adjacency:
        if start in seen:
            continue
        frontier, members = [start], {start}
        while frontier:
            for neighbour in adjacency[frontier.pop()] - members:
                members.add(neighbour)
                frontier.append(neighbour)
        seen |= members
        if len(members) > 1:
            clusters.add(frozenset(members))
    return clusters


pairs_strategy = st.lists(
    st.tuples(st.sampled_from("abcdefghij"), st.sampled_from("abcdefghij")),
    max_size=15,
)


class TestConnectedComponentsProperties:
    @given(pairs_strategy)
    def test_equals_breadth_first_closure(self, pairs):
        assert set(connected_components(pairs)) == reference_components(pairs)

    @given(pairs_strategy)
    def test_clusters_are_disjoint_and_sorted(self, pairs):
        clusters = connected_components(pairs)
        members = [uri for cluster in clusters for uri in cluster]
        assert len(members) == len(set(members))
        assert [len(c) for c in clusters] == sorted(map(len, clusters), reverse=True)

    @given(pairs_strategy, st.randoms(use_true_random=False))
    def test_pair_order_does_not_matter(self, pairs, rng):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert set(connected_components(shuffled)) == set(connected_components(pairs))
