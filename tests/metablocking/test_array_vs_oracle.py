"""Differential: string oracle == sequential array path == MapReduce jobs.

The fixed fixtures (sample corpora, synthetic center / dirty workloads)
never produce an empty collection, a URI described on both sides of a
bipartite block, non-ASCII URIs, or weights that tie *exactly* at a
pruning threshold.  Here hypothesis generates small block collections —
plus pinned adversarial shapes — and every scheme × pruner is held to
``==`` on the ordered ``(pair, weight)`` list across the three
implementations: the string-tuple oracle, ``pruner.prune(BlockingGraph)``
and ``parallel_metablocking_ids`` on the serial executor at 1–3 workers.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.mapreduce import MapReduceEngine, parallel_metablocking_ids
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.pruning import (
    CEP,
    CNP,
    PRUNERS,
    WNP,
    ReciprocalCNP,
    make_pruner,
)
from repro.metablocking.weighting import SCHEMES, make_scheme

from .string_graph_oracle import reference_edges, reference_prune

#: URIs whose code-point order differs from their ASCII neighbours', an
#: astral character included (UTF-16 and code-point order disagree on it)
URIS = [
    "http://e/a", "http://e/b", "http://e/c", "http://e/d", "http://e/e",
    "http://é/ü", "http://例/一", "urn:Ω", "http://e/\U0001f600", "http://e/\uffee",
]
#: the second source of bipartite collections; ``http://e/a`` is described
#: in both sources, so it can land on both sides of one block
URIS_2 = ["http://e/a", "http://f/a", "http://f/b", "http://f/c", "http://f/ß", "urn:ω"]


def collection(blocks: list[tuple[list[str], list[str] | None]]) -> BlockCollection:
    return BlockCollection(
        Block(f"k{i}", side1, side2) for i, (side1, side2) in enumerate(blocks)
    )


def clique(uris: list[str], copies: int) -> BlockCollection:
    """Every entity under *copies* identical keys: all weights tie."""
    return collection([(uris, None)] * copies)


def biclique(side1: list[str], side2: list[str], copies: int) -> BlockCollection:
    return collection([(side1, side2)] * copies)


def star(hub: str, leaves: list[str]) -> BlockCollection:
    """One two-entity block per leaf: the hub's edges all tie."""
    return collection([([hub, leaf], None) for leaf in leaves])


def _side(pool: list[str]):
    return st.lists(st.sampled_from(pool), max_size=5, unique=True)


dirty_collections = st.lists(_side(URIS).map(lambda s: (s, None)), max_size=6)
bipartite_collections = st.lists(st.tuples(_side(URIS), _side(URIS_2)), max_size=6)
collections = st.one_of(
    dirty_collections.map(collection),
    bipartite_collections.map(collection),
    st.builds(clique, st.just(URIS[:6]), st.integers(1, 3)),
    st.builds(biclique, st.just(URIS[:4]), st.just(URIS_2[:4]), st.integers(1, 3)),
    st.builds(star, st.just(URIS[0]), st.lists(st.sampled_from(URIS[1:]), unique=True)),
)

EMPTY = collection([])
SINGLE = collection([(URIS[:3], None)])
GIANT = collection([(URIS, None), (URIS[:2], None)])
NON_ASCII = collection([(URIS[5:], None), (URIS[6:9], None), (URIS[4:7], None)])
SHARED_URI = collection([(URIS[:3], URIS_2[:3]), (URIS[:2], URIS_2[:2])])
#: six entities, every pair at the same weight, more neighbours (5) than
#: the derived CNP k (1), more edges (15) than the CEP budget (6), and a
#: WNP mean over five equal floats: every threshold cuts through a tie
TIED = clique(URIS[:6], 2)
TIED_BIPARTITE = biclique(URIS[1:5], URIS_2[1:5], 3)
STAR = star(URIS[0], URIS[1:6])


def _as_pairs(edges):
    return [(edge.pair, edge.weight) for edge in edges]


def _assert_all_equal(blocks: BlockCollection, scheme_name: str, pruner, workers: int):
    expected = _as_pairs(reference_prune(blocks, make_scheme(scheme_name), pruner))
    graph = BlockingGraph(blocks, make_scheme(scheme_name))
    assert graph.materialize() == reference_edges(blocks, make_scheme(scheme_name))
    assert _as_pairs(pruner.prune(graph)) == expected
    parallel, metrics = parallel_metablocking_ids(
        MapReduceEngine(workers), blocks, make_scheme(scheme_name), pruner
    )
    assert _as_pairs(parallel) == expected
    # pair statistics + one global job, or + retention and vote merge
    assert len(metrics) == (3 if isinstance(pruner, (WNP, CNP)) else 2)


@pytest.mark.parametrize("pruner_name", sorted(PRUNERS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@settings(max_examples=12, deadline=None)
@given(blocks=collections, workers=st.integers(1, 3))
@example(blocks=EMPTY, workers=2)
@example(blocks=SINGLE, workers=3)
@example(blocks=GIANT, workers=2)
@example(blocks=NON_ASCII, workers=2)
@example(blocks=SHARED_URI, workers=2)
@example(blocks=TIED, workers=3)
@example(blocks=TIED_BIPARTITE, workers=2)
@example(blocks=STAR, workers=2)
def test_oracle_sequential_and_mapreduce_agree(blocks, workers, scheme_name, pruner_name):
    _assert_all_equal(blocks, scheme_name, make_pruner(pruner_name), workers)


@settings(max_examples=25, deadline=None)
@given(
    blocks=collections,
    scheme_name=st.sampled_from(sorted(SCHEMES)),
    pruner=st.tuples(
        st.sampled_from([CEP, CNP, ReciprocalCNP]), st.integers(1, 8)
    ).map(lambda drawn: drawn[0](k=drawn[1])),
    workers=st.integers(1, 3),
)
def test_explicit_budgets_agree(blocks, scheme_name, pruner, workers):
    """A fixed ``k`` moves the cut through every position of a tied run."""
    _assert_all_equal(blocks, scheme_name, pruner, workers)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_pinned_ties_sit_on_the_thresholds(scheme_name):
    """The tie fixtures are what they claim: one weight, cut mid-run."""
    edges = reference_edges(TIED, make_scheme(scheme_name))
    assert len(edges) == 15 and len(set(edges.values())) == 1
    assert CNP().node_budget_from_blocks(TIED) == 1  # of 5 tied neighbours
    assert CEP().budget_from_blocks(TIED) == 6  # of 15 tied edges
    assert len(reference_prune(TIED, make_scheme(scheme_name), CEP())) == 6
    assert len(reference_prune(TIED, make_scheme(scheme_name), ReciprocalCNP())) < 15
