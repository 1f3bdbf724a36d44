"""Differential: string oracle == sequential array path == MapReduce jobs.

The fixed fixtures (sample corpora, synthetic center / dirty workloads)
never produce an empty collection, a URI described on both sides of a
bipartite block, non-ASCII URIs, or weights that tie *exactly* at a
pruning threshold.  Here hypothesis generates small block collections —
plus pinned adversarial shapes — and every scheme × pruner is held to
``==`` on the ordered ``(pair, weight)`` list across the three
implementations: the string-tuple oracle, ``pruner.prune(BlockingGraph)``
and ``parallel_metablocking_ids`` on the serial executor at 1–3 workers.

The second half pins the columnar contract itself: WEP / CEP cuts that
sit exactly on a tie, an astral-plane URI and a shared-URI self-pair;
the ``materialize()`` mapping view against the oracle dict (content,
order, ``len``, ``in``, missing keys, ``weight_of``); and a string-only
plugin scheme weighed through the table's derived ``pairs``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.blocking.block import Block, BlockCollection
from repro.mapreduce import MapReduceEngine, parallel_metablocking_ids
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.pruning import (
    CEP,
    CNP,
    PRUNERS,
    WEP,
    ReciprocalCNP,
)
from repro.metablocking.weighting import ARCS, CBS, SCHEMES, WeightingScheme

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
    expected = _as_pairs(reference_prune(blocks, registry.create("weighting", scheme_name), pruner))
    graph = BlockingGraph(blocks, registry.create("weighting", scheme_name))
    assert graph.materialize() == reference_edges(blocks, registry.create("weighting", scheme_name))
    assert _as_pairs(pruner.prune(graph)) == expected
    parallel, metrics = parallel_metablocking_ids(
        MapReduceEngine(workers), blocks, registry.create("weighting", scheme_name), pruner
    )
    assert _as_pairs(parallel) == expected
    # pair statistics + one pruning job (retention votes fold driver-side)
    assert len(metrics) == 2


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
    _assert_all_equal(blocks, scheme_name, registry.create("pruner", pruner_name), workers)


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
    edges = reference_edges(TIED, registry.create("weighting", scheme_name))
    assert len(edges) == 15 and len(set(edges.values())) == 1
    assert CNP().node_budget_from_blocks(TIED) == 1  # of 5 tied neighbours
    assert CEP().budget_from_blocks(TIED) == 6  # of 15 tied edges
    assert len(reference_prune(TIED, registry.create("weighting", scheme_name), CEP())) == 6
    assert len(reference_prune(TIED, registry.create("weighting", scheme_name), ReciprocalCNP())) < 15


# ---------------------------------------------------------------------------
# Columnar WEP / CEP: pinned cuts
# ---------------------------------------------------------------------------

#: CBS weights 3, 2, 2, 1 — the mean is exactly 2.0, the weight of two edges
CBS_LADDER = collection(
    [(["http://e/a", "http://e/b"], None)] * 3
    + [(["http://e/c", "http://e/d"], None)] * 2
    + [(["http://e/c", "http://e/e"], None)] * 2
    + [(["http://e/d", "http://e/e"], None)]
)
ASTRAL, HALFWIDTH = "http://e/\U0001f600", "http://e/\uffee"


def _prune_everywhere(blocks, scheme_name, pruner):
    """Sequential and MapReduce survivors, both already held to the oracle."""
    expected = reference_prune(blocks, registry.create("weighting", scheme_name), pruner)
    _assert_all_equal(blocks, scheme_name, pruner, workers=2)
    return expected


def test_wep_keeps_the_edges_exactly_at_the_mean():
    graph = BlockingGraph(CBS_LADDER, CBS())
    assert graph.average_weight() == 2.0
    kept = _prune_everywhere(CBS_LADDER, "CBS", WEP())
    assert [(edge.pair, edge.weight) for edge in kept] == [
        (("http://e/a", "http://e/b"), 3.0),
        (("http://e/c", "http://e/d"), 2.0),
        (("http://e/c", "http://e/e"), 2.0),
    ]


def test_cep_cuts_a_tied_run_in_pair_order():
    kept = _prune_everywhere(CBS_LADDER, "CBS", CEP(k=2))
    assert [edge.pair for edge in kept] == [
        ("http://e/a", "http://e/b"),
        ("http://e/c", "http://e/d"),  # not (c, e): same weight, later pair
    ]
    assert len(_prune_everywhere(CBS_LADDER, "CBS", CEP(k=3))) == 3
    assert len(_prune_everywhere(CBS_LADDER, "CBS", CEP(k=10**6))) == 4


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_wep_mean_is_the_python_fold_over_row_order(scheme_name):
    """``np.mean`` sums pairwise and can land one ulp off the reference's
    ``sum(dict.values())``; with every weight tied that ulp decides whether
    WEP keeps all fifteen edges or none."""
    oracle = reference_edges(TIED, registry.create("weighting", scheme_name))
    graph = BlockingGraph(TIED, registry.create("weighting", scheme_name))
    assert graph.total_weight() == sum(oracle.values())
    assert graph.average_weight() == sum(oracle.values()) / 15
    assert len(_prune_everywhere(TIED, scheme_name, WEP())) in (0, 15)


def test_astral_uri_ranks_by_code_point():
    """U+1F600 sorts after U+FFEE by code point, before it in UTF-16."""
    blocks = star(URIS[0], [ASTRAL, HALFWIDTH])
    for pruner in (CEP(k=1), WEP()):
        kept = _prune_everywhere(blocks, "CBS", pruner)
        assert kept[0].pair == (URIS[0], HALFWIDTH)
    assert [e.pair for e in BlockingGraph(blocks, CBS()).edges()] == [
        (URIS[0], HALFWIDTH), (URIS[0], ASTRAL),
    ]


@pytest.mark.parametrize("pruner", [WEP(threshold_factor=1e-9), CEP(k=10**6)], ids=["WEP", "CEP"])
def test_shared_uri_self_pair_is_never_an_edge(pruner):
    kept = _prune_everywhere(SHARED_URI, "ARCS", pruner)
    assert len(kept) == len(reference_edges(SHARED_URI, ARCS())) == 8
    assert all(edge.left < edge.right for edge in kept)


# ---------------------------------------------------------------------------
# The mapping view over the columns == the oracle dict
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(blocks=collections, scheme_name=st.sampled_from(sorted(SCHEMES)))
@example(blocks=EMPTY, scheme_name="ARCS")
@example(blocks=NON_ASCII, scheme_name="EJS")
@example(blocks=SHARED_URI, scheme_name="ARCS")
def test_edge_view_behaves_like_the_oracle_dict(blocks, scheme_name):
    oracle = reference_edges(blocks, registry.create("weighting", scheme_name))
    graph = BlockingGraph(blocks, registry.create("weighting", scheme_name))
    view = graph.materialize()
    assert len(view) == len(graph) == len(oracle)
    assert list(view) == list(oracle)  # row order == insertion order
    assert list(view.items()) == list(oracle.items())
    assert list(view.values()) == list(oracle.values())
    assert view == oracle and oracle == view
    assert list(graph.weights) == list(oracle.values())
    for pair, weight in oracle.items():
        assert pair in view and view[pair] == weight
        assert type(view[pair]) is float
        assert graph.weight_of(*pair) == graph.weight_of(*reversed(pair)) == weight
        # The dict holds canonical pairs only; so does the view.
        assert pair[::-1] not in view and view.get(pair[::-1]) is None
    for missing in [("http://e/a", "http://nowhere"), ("http://e/a", "http://e/a"), ("", "")]:
        assert missing not in view
        with pytest.raises(KeyError):
            view[missing]
    for left in URIS[:4]:
        for right in URIS_2[:3]:
            if left != right:
                expected = oracle.get((min(left, right), max(left, right)), 0.0)
                assert graph.weight_of(left, right) == expected
    assert not hasattr(view, "__setitem__")


class _StringOnlyScheme(WeightingScheme):
    """A plugin on the string API alone: no ``prepare_arrays``."""

    name = "string-only"

    def prepare(self, blocks, pair_stats):
        self.total = sum(common for common, _ in pair_stats.values())

    def weight(self, uri_a, uri_b, common_blocks, arcs):
        return (common_blocks + arcs) / self.total + len(uri_a) - len(uri_b)


@pytest.mark.parametrize("pruner_name", sorted(PRUNERS))
@pytest.mark.parametrize("blocks", [NON_ASCII, SHARED_URI, TIED, EMPTY], ids=["non-ascii", "shared", "tied", "empty"])
def test_string_only_plugin_scheme_weighs_through_derived_pairs(blocks, pruner_name):
    pruner = registry.create("pruner", pruner_name)
    expected = _as_pairs(reference_prune(blocks, _StringOnlyScheme(), pruner))
    graph = BlockingGraph(blocks, _StringOnlyScheme())
    assert graph.materialize() == reference_edges(blocks, _StringOnlyScheme())
    assert _as_pairs(pruner.prune(graph)) == expected
    parallel, _ = parallel_metablocking_ids(
        MapReduceEngine(2), blocks, _StringOnlyScheme(), pruner
    )
    assert _as_pairs(parallel) == expected
