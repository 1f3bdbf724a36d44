"""Batch edge weights read back through stream query stars.

A stream query weighs its star — the query and its candidates — with
:meth:`~repro.stream.pairs.DeltaPairTable.weigh`.  Weighing the star of
*each* endpoint of every pair covers both column orientations (the query
as the lexicographically smaller URI, and as the larger one), so a table
whose stars reproduce a batch graph's weights float for float from both
sides evaluates every scheme exactly as the batch path does.
"""

from __future__ import annotations

from collections import defaultdict

from repro.api import registry


def assert_stars_match(table, scheme_name: str, edges) -> None:
    """Every pair of *edges* (``(uri_a, uri_b) → weight``) weighed from
    both endpoints' stars equals the batch weight, bit for bit."""
    interner = table.source.store.interner
    stars: dict[str, list[int]] = defaultdict(list)
    for uri_a, uri_b in edges:
        stars[uri_a].append(interner.id_of(uri_b))
        stars[uri_b].append(interner.id_of(uri_a))
    for center, partners in stars.items():
        weights = table.weigh(
            registry.create("weighting", scheme_name), interner.id_of(center), partners
        )
        assert list(weights) == sorted(partners)
        for partner, weight in weights.items():
            pair = tuple(sorted((center, interner.uri_of(partner))))
            assert weight == edges[pair], (scheme_name, pair)
