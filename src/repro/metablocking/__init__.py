"""Meta-blocking: restructuring a block collection into a pruned comparison set.

Token blocking places highly similar descriptions in *many* common blocks,
so the same pair is compared repeatedly, and most implied comparisons
involve pairs sharing only one or two noisy tokens.  Meta-blocking
(Papadakis et al.; parallelized in the companion IEEE Big Data 2015 paper
[4]) recasts the block collection as a **blocking graph** — nodes are
descriptions, edges connect co-occurring pairs, edge weights aggregate the
co-occurrence evidence — and prunes low-weight edges.  The surviving edges
are exactly the distinct comparisons MinoanER's scheduler then orders.

* :mod:`repro.metablocking.graph` — the (implicit) blocking graph;
* :mod:`repro.metablocking.weighting` — CBS, ECBS, JS, EJS, ARCS schemes;
* :mod:`repro.metablocking.pruning` — WEP, CEP, WNP, CNP (+ reciprocal).
"""

from repro.metablocking.graph import (
    BlockingGraph,
    PairTable,
    WeightedEdge,
    pair_table_for,
)
from repro.metablocking.weighting import (
    WeightingScheme,
    CBS,
    ECBS,
    JS,
    EJS,
    ARCS,
    ChiSquare,
    SCHEMES,
)
from repro.metablocking.pruning import (
    PruningScheme,
    WEP,
    CEP,
    WNP,
    CNP,
    ReciprocalWNP,
    ReciprocalCNP,
    PRUNERS,
)

__all__ = [
    "BlockingGraph",
    "PairTable",
    "pair_table_for",
    "WeightedEdge",
    "WeightingScheme",
    "CBS",
    "ECBS",
    "JS",
    "EJS",
    "ARCS",
    "ChiSquare",
    "SCHEMES",
    "PruningScheme",
    "WEP",
    "CEP",
    "WNP",
    "CNP",
    "ReciprocalWNP",
    "ReciprocalCNP",
    "PRUNERS",
]
