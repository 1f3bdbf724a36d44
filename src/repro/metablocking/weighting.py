"""Edge-weighting schemes for the blocking graph.

Each scheme turns a pair's co-occurrence statistics into a scalar weight —
a proxy for match likelihood computed *without* reading the descriptions'
values (that is the point: weights are nearly free, comparisons are not).
The five canonical schemes of the meta-blocking literature (and of the
parallel meta-blocking paper [4]) are implemented:

==========  ==================================================================
``CBS``     Common Blocks Scheme — raw number of shared blocks.
``ECBS``    Enhanced CBS — CBS discounted by how many blocks each entity
            appears in: ``CBS · log(B/|B_i|) · log(B/|B_j|)``.
``JS``      Jaccard Scheme — shared blocks over the union of both entities'
            blocks.
``EJS``     Enhanced JS — JS boosted by the (inverse) degrees:
            ``JS · log(E/deg_i) · log(E/deg_j)`` with E the edge count.
``ARCS``    Aggregate Reciprocal Comparisons — ``Σ 1/‖b‖`` over common
            blocks b: small (selective) blocks count more.
==========  ==================================================================

Every built-in scheme is evaluated as array expressions over a pair
table's columns: :meth:`~WeightingScheme.prepare_arrays` once with the
global factors (precomputing the log discounts, one log per entity
instead of one per edge endpoint visit), then
:meth:`~WeightingScheme.weight_array` over all edges.  A batch graph
passes its whole pair table (:func:`weight_pair_table`), a stream query
its star of candidates (:meth:`~repro.stream.pairs.DeltaPairTable.weigh`).
The string API — :meth:`~WeightingScheme.prepare` once, then
:meth:`~WeightingScheme.weight` per URI pair — is the registry's plugin
contract (a scheme that implements only it is weighted row by row) and
the input of the test oracle, with bit-identical results.

``ids_a`` names the endpoint whose URI sorts first, mirroring the
canonical argument order of ``weight`` — float products associate
left-to-right, so argument order is part of the bit-identity contract.

The formulas themselves live in :mod:`repro.metablocking.scheme_defs`
(shared with the SQL compiler); the classes here only orchestrate the
"prepare globals, then weight each pair" dance around those kernels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as _np

from repro.blocking.block import BlockCollection
from repro.metablocking import scheme_defs


class WeightingScheme(ABC):
    """Base class: per-pair weight from co-occurrence statistics.

    :meth:`prepare` (or :meth:`prepare_arrays`) is called once with the
    full statistics so schemes can compute global quantities (block
    counts, node degrees); :meth:`weight` is then called per pair (or
    :meth:`weight_array` once over all of them).
    """

    #: short name used in experiment tables (overridden per scheme)
    name = "scheme"

    def prepare(
        self,
        blocks: BlockCollection,
        pair_stats: dict[tuple[str, str], tuple[int, float]],
    ) -> None:
        """Hook for global precomputation (default: none)."""

    def prepare_arrays(
        self, placements, degrees, total_blocks: int, edge_count: int
    ) -> bool:
        """Prepare the vectorized path from the global factors.

        Args:
            placements / degrees: per-entity block placements and
                distinct comparison partners, int arrays indexed by the
                ids :meth:`weight_array` receives.
            total_blocks: number of blocks of the collection.
            edge_count: number of distinct pairs of the blocking graph.

        Returns:
            True when the scheme supports :meth:`weight_array`; the
            default opts out, making the graph fall back to the string
            API.
        """
        return False

    def weight_array(self, ids_a, ids_b, common, arcs):
        """Vectorized weights for all edges; requires :meth:`prepare_arrays`.

        Arguments are parallel numpy arrays: per-edge endpoint ids
        (``ids_a`` holding the lexicographically smaller URI of each
        pair), common-block counts and ARCS sums; returns a float64
        array.  Expression structure mirrors :meth:`weight` exactly,
        keeping results bit-identical elementwise.
        """
        raise NotImplementedError(f"{self.name} has no array fast path")

    @abstractmethod
    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        """Weight of the edge (uri_a, uri_b).

        Args:
            common_blocks: number of blocks containing both descriptions.
            arcs: sum of reciprocal block cardinalities over those blocks.
        """


def _placement_counts_array(blocks: BlockCollection):
    """Per-entity placement counts as an int64 array, indexed by dense id."""
    return _np.bincount(blocks.id_arrays().sides, minlength=len(blocks.interner()))


def _placement_counts(blocks: BlockCollection) -> dict[str, int]:
    """URI → placement count, for the string-API ``prepare``."""
    counts = _placement_counts_array(blocks).tolist()
    return dict(zip(blocks.interner().uri_table(), counts))


class CBS(WeightingScheme):
    """Common Blocks Scheme: ``w = |common blocks|``."""

    name = "CBS"

    def prepare_arrays(self, placements, degrees, total_blocks, edge_count) -> bool:
        return True

    def weight_array(self, ids_a, ids_b, common, arcs):
        return scheme_defs.cbs_weights(common)

    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        return scheme_defs.cbs_weight(common_blocks)


class ECBS(WeightingScheme):
    """Enhanced Common Blocks Scheme.

    ``w = CBS · log(B / |B_a|) · log(B / |B_b|)`` where ``B`` is the total
    block count and ``|B_x|`` the number of blocks containing ``x`` — an
    IDF-style discount for promiscuous entities.
    """

    name = "ECBS"

    def __init__(self) -> None:
        self._total_blocks = 1
        self._blocks_per_entity: dict[str, int] = {}
        self._log_factor_array = None

    def prepare(self, blocks, pair_stats) -> None:
        self._total_blocks = max(len(blocks), 1)
        self._blocks_per_entity = _placement_counts(blocks)

    def prepare_arrays(self, placements, degrees, total_blocks, edge_count) -> bool:
        total = max(total_blocks, 1)
        self._total_blocks = total
        # math.log per entity (not np.log: it can differ in the last ulp
        # from the reference's math.log) — still once per entity, not per
        # edge endpoint.
        self._log_factor_array = _np.array(
            scheme_defs.ecbs_log_factors(total, placements.tolist())
        )
        return True

    def weight_array(self, ids_a, ids_b, common, arcs):
        factor = self._log_factor_array
        return scheme_defs.factor_product(common, factor[ids_a], factor[ids_b])

    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        blocks_a = self._blocks_per_entity.get(uri_a, 1)
        blocks_b = self._blocks_per_entity.get(uri_b, 1)
        idf_a = scheme_defs.ecbs_log_factor(self._total_blocks, blocks_a)
        idf_b = scheme_defs.ecbs_log_factor(self._total_blocks, blocks_b)
        return scheme_defs.factor_product(common_blocks, idf_a, idf_b)


class JS(WeightingScheme):
    """Jaccard Scheme: shared blocks over union of blocks."""

    name = "JS"

    def __init__(self) -> None:
        self._blocks_per_entity: dict[str, int] = {}
        self._block_counts_array = None

    def prepare(self, blocks, pair_stats) -> None:
        self._blocks_per_entity = _placement_counts(blocks)

    def prepare_arrays(self, placements, degrees, total_blocks, edge_count) -> bool:
        self._block_counts_array = placements
        return True

    def weight_array(self, ids_a, ids_b, common, arcs):
        counts = self._block_counts_array
        union = scheme_defs.js_union(counts[ids_a], counts[ids_b], common)
        return scheme_defs.js_weights(common, union)

    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        union = scheme_defs.js_union(
            self._blocks_per_entity.get(uri_a, 0),
            self._blocks_per_entity.get(uri_b, 0),
            common_blocks,
        )
        return scheme_defs.js_weight(common_blocks, union)


class EJS(WeightingScheme):
    """Enhanced Jaccard Scheme.

    ``w = JS · log(E / deg_a) · log(E / deg_b)`` with ``E`` the number of
    distinct edges in the blocking graph and ``deg_x`` the number of
    distinct comparisons entity ``x`` participates in.
    """

    name = "EJS"

    def __init__(self) -> None:
        self._js = JS()
        self._edge_count = 1
        self._degrees: dict[str, int] = {}
        self._log_factor_array = None

    def prepare(self, blocks, pair_stats) -> None:
        self._js.prepare(blocks, pair_stats)
        self._edge_count = max(len(pair_stats), 1)
        degrees: dict[str, int] = {}
        for left, right in pair_stats:
            degrees[left] = degrees.get(left, 0) + 1
            degrees[right] = degrees.get(right, 0) + 1
        self._degrees = degrees

    def prepare_arrays(self, placements, degrees, total_blocks, edge_count) -> bool:
        self._js.prepare_arrays(placements, degrees, total_blocks, edge_count)
        self._edge_count = max(edge_count, 1)
        self._log_factor_array = _np.array(
            scheme_defs.ejs_log_factors(self._edge_count, degrees.tolist())
        )
        return True

    def weight_array(self, ids_a, ids_b, common, arcs):
        js = self._js.weight_array(ids_a, ids_b, common, arcs)
        factor = self._log_factor_array
        return scheme_defs.factor_product(js, factor[ids_a], factor[ids_b])

    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        js = self._js.weight(uri_a, uri_b, common_blocks, arcs)
        idf_a = scheme_defs.ejs_log_factor(self._edge_count, self._degrees.get(uri_a, 1))
        idf_b = scheme_defs.ejs_log_factor(self._edge_count, self._degrees.get(uri_b, 1))
        return scheme_defs.factor_product(js, idf_a, idf_b)


class ARCS(WeightingScheme):
    """Aggregate Reciprocal Comparisons Scheme: ``w = Σ_b 1/‖b‖``.

    Membership in a two-description block is maximal evidence (weight 1
    from that block); membership in a thousand-pair block adds almost
    nothing.  ARCS is MinoanER's default scheduler signal (ablated in E4).
    """

    name = "ARCS"

    def prepare_arrays(self, placements, degrees, total_blocks, edge_count) -> bool:
        return True

    def weight_array(self, ids_a, ids_b, common, arcs):
        return scheme_defs.arcs_weight(arcs)

    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        return scheme_defs.arcs_weight(arcs)


class ChiSquare(WeightingScheme):
    """Pearson's χ² scheme (the BLAST signal of Simonini et al.).

    Tests how far the observed co-occurrence count of a pair deviates from
    what independence of the two entities' block memberships would
    predict.  With ``B`` total blocks, ``|B_a|``/``|B_b|`` per-entity
    block counts and ``O`` observed common blocks, the expectation under
    independence is ``E = |B_a|·|B_b|/B`` and the statistic aggregates the
    (O−E)²/E terms of the 2×2 contingency table.  Strongly co-occurring
    pairs score orders of magnitude above chance-level ones, making χ² a
    sharp pruning signal on skewed corpora.
    """

    name = "X2"

    def __init__(self) -> None:
        self._total_blocks = 1
        self._blocks_per_entity: dict[str, int] = {}
        self._block_counts_array = None

    def prepare(self, blocks, pair_stats) -> None:
        self._total_blocks = max(len(blocks), 1)
        self._blocks_per_entity = _placement_counts(blocks)

    def prepare_arrays(self, placements, degrees, total_blocks, edge_count) -> bool:
        self._total_blocks = max(total_blocks, 1)
        self._block_counts_array = placements
        return True

    def weight_array(self, ids_a, ids_b, common, arcs):
        counts = self._block_counts_array
        return scheme_defs.chi_square_weights(
            common, counts[ids_a], counts[ids_b], self._total_blocks
        )

    def weight(self, uri_a: str, uri_b: str, common_blocks: int, arcs: float) -> float:
        in_a = self._blocks_per_entity.get(uri_a, 0)
        in_b = self._blocks_per_entity.get(uri_b, 0)
        return scheme_defs.chi_square_statistic(
            common_blocks, in_a, in_b, self._total_blocks
        )


def weight_pair_table(scheme: WeightingScheme, blocks: BlockCollection, table):
    """Per-row weights of a pair table under *scheme* (float64 array).

    The one place the "prepare globals, then weight each pair" dance is
    spelled out for array-shaped statistics: schemes with a vectorized
    path are evaluated as array expressions; schemes without one fall
    back to the string API row by row — the only reader of the table's
    derived ``pairs`` on any backend.  Shared by the sequential
    :meth:`~repro.metablocking.graph.BlockingGraph.materialize` and the
    MapReduce jobs, which guarantees both produce bit-identical weights
    from identical statistics.  The global factors come from *blocks*
    (placements, block count) and from *table* (degrees, edge count).
    """
    if not len(table):
        return _np.empty(0, dtype=_np.float64)
    entities = len(blocks.interner())
    degrees = _np.bincount(table.ids_a, minlength=entities) + _np.bincount(
        table.ids_b, minlength=entities
    )
    if scheme.prepare_arrays(
        _placement_counts_array(blocks), degrees, len(blocks), len(table)
    ):
        return scheme.weight_array(table.ids_a, table.ids_b, table.common, table.arcs)
    stats = {
        pair: (count, arc)
        for pair, count, arc in zip(
            table.pairs, table.common.tolist(), table.arcs.tolist()
        )
    }
    scheme.prepare(blocks, stats)
    return _np.array(
        [
            scheme.weight(pair[0], pair[1], count, arc)
            for pair, (count, arc) in stats.items()
        ],
        dtype=_np.float64,
    )


#: name → class table the component registry (``repro.api``) registers
SCHEMES: dict[str, type[WeightingScheme]] = {
    cls.name: cls for cls in (CBS, ECBS, JS, EJS, ARCS, ChiSquare)
}
