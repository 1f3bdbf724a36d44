"""scheme_defs: the one shared home of the six weighting formulas.

The numpy backbone, the MapReduce reducers and the SQL compiler all
consume :mod:`repro.metablocking.scheme_defs`, so each formula exists in
exactly one place.  Two gates here:

* **kernel consistency** — the scalar kernels agree bit-for-bit with
  their vectorized counterparts and with the raw ``math`` expressions
  they encode;
* **seed regression** — full edge lists on the sample corpora hash to
  the values the pre-refactor implementation produced.  A digest
  mismatch means the refactor changed the *math*, not just the module
  layout.  Regenerate (only after deliberately changing a formula) by
  hashing ``"{left}|{right}|{weight!r}"`` joined with ``";"`` over
  the pair-sorted edges of ``BlockingGraph(blocks, scheme)``.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.api import registry
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.datasets.samples import load_movies, load_restaurants
from repro.metablocking import BlockingGraph
from repro.metablocking import scheme_defs
from repro.metablocking.weighting import SCHEMES

from .string_graph_oracle import graph_weights, sorted_edges

np = pytest.importorskip("numpy")

#: sha256-prefix of each scheme's full edge list on the seed
#: implementation (see module docstring for the hashing recipe)
GOLDEN = {
    "movies": {
        "ARCS": "1c1dec567abe4d2b",
        "CBS": "1c1dec567abe4d2b",
        "ECBS": "b5a784f85e968e3a",
        "EJS": "96fa163b73388d6b",
        "JS": "8c7fe75495aab13d",
        "X2": "066cd604e279fc24",
    },
    "restaurants": {
        "ARCS": "5c35829af56fa0d3",
        "CBS": "5c35829af56fa0d3",
        "ECBS": "fe7e5ba5e9132864",
        "EJS": "cdd4d96bff017c51",
        "JS": "8eccd0b5fc601559",
        "X2": "fb15d7c0c140aca1",
    },
}

CORPORA = {"movies": load_movies, "restaurants": load_restaurants}


def edges_digest(blocks, scheme_name):
    edges = sorted_edges(graph_weights(BlockingGraph(blocks, registry.create("weighting", scheme_name))))
    text = ";".join(f"{e.left}|{e.right}|{e.weight!r}" for e in edges)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus_case(request):
    kb1, kb2, _ = CORPORA[request.param]()
    blocks = BlockFiltering().process(
        BlockPurging().process(TokenBlocking().build(kb1, kb2))
    )
    return request.param, blocks


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_refactored_path_matches_seed_oracle(corpus_case, scheme_name):
    corpus, blocks = corpus_case
    assert edges_digest(blocks, scheme_name) == GOLDEN[corpus][scheme_name], (
        f"{scheme_name} weights on {corpus} diverged from the seed "
        "implementation — the shared formula changed"
    )


class TestKernelConsistency:
    """Scalar kernels == vectorized kernels == the raw expressions."""

    def test_ecbs_log_factor(self):
        for total, count in [(10, 1), (10, 4), (1, 1), (100, 37)]:
            expected = math.log((total + 1) / count)
            assert scheme_defs.ecbs_log_factor(total, count) == expected
        vec = scheme_defs.ecbs_log_factors(10, [1, 4])
        assert list(vec) == [
            scheme_defs.ecbs_log_factor(10, 1),
            scheme_defs.ecbs_log_factor(10, 4),
        ]

    def test_ejs_log_factor_guards_zero_degree(self):
        assert scheme_defs.ejs_log_factor(5, 0) == math.log(6.0)
        assert scheme_defs.ejs_log_factor(5, 3) == math.log(6.0 / 3.0)
        vec = scheme_defs.ejs_log_factors(5, [0, 3])
        assert list(vec) == [
            scheme_defs.ejs_log_factor(5, 0),
            scheme_defs.ejs_log_factor(5, 3),
        ]

    def test_js_scalar_equals_vector(self):
        commons = np.array([2, 1, 3], dtype=np.int64)
        unions = scheme_defs.js_union(
            np.array([4, 2, 3]), np.array([3, 1, 3]), commons
        )
        vec = scheme_defs.js_weights(commons, unions)
        for i in range(len(commons)):
            assert vec[i] == scheme_defs.js_weight(
                int(commons[i]), int(unions[i])
            )

    def test_chi_square_scalar_equals_vector(self):
        common = np.array([2, 1], dtype=np.float64)
        counts_a = np.array([4, 2], dtype=np.float64)
        counts_b = np.array([3, 2], dtype=np.float64)
        vec = scheme_defs.chi_square_weights(common, counts_a, counts_b, 10)
        for i in range(2):
            scalar = scheme_defs.chi_square_statistic(
                float(common[i]), float(counts_a[i]), float(counts_b[i]), 10
            )
            assert vec[i] == scalar

    def test_sql_exprs_cover_every_scheme(self):
        assert set(scheme_defs.SQL_WEIGHT_EXPRS) == {
            "CBS",
            "ECBS",
            "JS",
            "EJS",
            "ARCS",
            "X2",
        }
        for expr in scheme_defs.SQL_WEIGHT_EXPRS.values():
            # expressions reference the joined tables of the compiler
            assert "ps." in expr or "fa." in expr
