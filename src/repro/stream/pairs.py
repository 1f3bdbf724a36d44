"""The pair table as a lazy view over the postings.

The batch :class:`~repro.metablocking.graph.PairTable` aggregates every
implied comparison of a finished block collection in one pass.  The
streaming table materialises no pair at all: the per-pair statistics
are **read from the index at query time** — the pair's shared keys in
sorted order, each contributing its cells to ``common`` and ``cells /
cardinality`` to ``arcs``, exactly as the batch enumeration accumulates
them (ARCS could never be kept eagerly anyway: a block's reciprocal
cardinality changes retroactively each time the block grows).  What
*is* maintained under inserts and deletes are the six global factors
the weighting schemes and pruners consume: ``placements``,
``active_blocks``, ``entities_placed`` and ``total_assignments`` from
the per-placement hooks, ``degrees`` and ``edge_count`` from one set
difference of the touched entity's neighbours per event — two
``neighbours_of`` unions the table takes itself, inside the index's
event bracket.  The same holds one layer up:
:class:`~repro.stream.processed_view.SurvivorPairTable` is this view
over the processed view's *exposed* blocks, its neighbour differences
taken once per batch of view transitions.

A resolver keeps **one** table, the one its queries read — the raw one
over the index or the survivor one over a processed view, never both —
so nothing folds neighbour sets into statistics no query consults.

A query is weighed with the batch definitions themselves:
:meth:`PairStatsView.weigh` lays the query's star out as pair-table
columns — one ``(common, arcs)`` pass per candidate, in
O(keys-of-the-smaller-endpoint), with **no global rebuild** — gathers
the global factors of the query and its candidates, and hands both to
the registry scheme's
:meth:`~repro.metablocking.weighting.WeightingScheme.weight_array`.
"""

from __future__ import annotations

import numpy as _np

from repro.model.interner import PAIR_MASK, PAIR_SHIFT, pack_pair
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex


class PairStatsView:
    """Per-pair statistics + global factors, weighed as batch columns.

    The weighting schemes are functions of a pair's ``(common, arcs)``
    plus a handful of global factors; this mixin reads the first and
    lays both out the way the batch
    :func:`~repro.metablocking.weighting.weight_pair_table` does, so
    every incrementally-maintained statistics table — the raw
    :class:`DeltaPairTable` and the processed-view
    :class:`~repro.stream.processed_view.SurvivorPairTable` — is weighed
    by the same array kernels as the batch graph.  Subclasses provide:

    * :meth:`block_source` — the structure the per-pair statistics
      (:meth:`pair_stats`) are read from;
    * ``placements`` (entity id → block placements), ``degrees``
      (entity id → distinct partners), ``active_blocks`` and
      ``edge_count`` — the global factors;
    * :meth:`interner` — the URI ↔ id mapping.

    Columns keep the batch argument order (the lexicographically
    smaller URI first), so the weights equal what a freshly built batch
    graph over the subclass's block universe would assign.
    """

    __slots__ = ()

    # -- subclass contract ---------------------------------------------------

    placements: dict[int, int]
    degrees: dict[int, int]
    active_blocks: int
    edge_count: int

    def block_source(self):
        """The live blocks behind the pair statistics: anything exposing
        ``keys_of`` / ``cells_between`` / ``cardinality_of`` (the index
        and the processed view both do)."""
        raise NotImplementedError

    def interner(self):
        """The URI ↔ dense-id mapping of the underlying store."""
        raise NotImplementedError

    def _pair_keys(self):
        """Iterate the packed pairs of the table's edges."""
        raise NotImplementedError

    # -- statistics ----------------------------------------------------------

    def pair_stats(self, id_a: int, id_b: int) -> tuple[int, float]:
        """``(common, arcs)`` of the pair, bit-identical to the batch path
        (``(0, 0.0)`` when never co-blocked).

        The batch reference walks blocks in sorted-key order, counting
        each comparison cell and adding ``1 / cardinality`` once per
        cell; this walks the pair's shared keys in the same order,
        reading each block's *current* cardinality — identical terms,
        identical order, identical floats.
        """
        source = self.block_source()
        shared = source.keys_of(id_a).keys() & source.keys_of(id_b).keys()
        common = 0
        arcs = 0.0
        for key in sorted(shared):
            cells = source.cells_between(key, id_a, id_b)
            if not cells:
                continue
            common += cells
            cardinality = source.cardinality_of(key)
            if not cardinality:
                continue
            contribution = 1.0 / cardinality
            for _ in range(cells):
                arcs += contribution
        return common, arcs

    def weigh(self, scheme, entity_id: int, candidate_ids) -> dict[int, float]:
        """Weights of the (query, candidate) pairs under *scheme*, a
        registry :class:`~repro.metablocking.weighting.WeightingScheme`.

        The query's star becomes pair-table columns under local ids — 0
        for the query, ``1..n`` for the candidates in ascending entity-id
        order, the one order a neighbourhood is held in — and *scheme*
        weighs them with the global factors gathered per local id.

        Raises:
            KeyError: when *scheme* has no array path.
        """
        candidates = sorted(candidate_ids)
        if not candidates:
            return {}
        uris = self.interner().uri_table()
        uri_q = uris[entity_id]
        ids_a, ids_b, common, arcs = [], [], [], []
        for local, candidate in enumerate(candidates, 1):
            pair_common, pair_arcs = self.pair_stats(entity_id, candidate)
            common.append(pair_common)
            arcs.append(pair_arcs)
            if uris[candidate] < uri_q:
                ids_a.append(local)
                ids_b.append(0)
            else:
                ids_a.append(0)
                ids_b.append(local)
        star = [entity_id, *candidates]
        placements, degrees = self.placements, self.degrees
        if not scheme.prepare_arrays(
            _np.array([placements.get(member, 0) for member in star]),
            _np.array([degrees.get(member, 0) for member in star]),
            self.active_blocks,
            self.edge_count,
        ):
            raise KeyError(f"weighting scheme {scheme.name!r} has no array path")
        weights = scheme.weight_array(
            _np.array(ids_a), _np.array(ids_b), _np.array(common), _np.array(arcs)
        )
        return dict(zip(candidates, weights.tolist()))

    def as_reference_stats(self) -> dict[tuple[str, str], tuple[int, float]]:
        """URI-keyed (common, arcs) map, comparable to the batch oracle.

        Matches the string-loop oracle of the batch pair table
        (``tests/metablocking/string_graph_oracle.py``) over the
        subclass's block universe — entry for entry.  Meant for the
        equivalence suite and for audits; cost is O(pairs).
        """
        uris = self.interner().uri_table()
        out: dict[tuple[str, str], tuple[int, float]] = {}
        for key in self._pair_keys():
            id_a, id_b = key >> PAIR_SHIFT, key & PAIR_MASK
            uri_a, uri_b = uris[id_a], uris[id_b]
            if uri_b < uri_a:
                uri_a, uri_b = uri_b, uri_a
            out[(uri_a, uri_b)] = self.pair_stats(id_a, id_b)
        return out


class DeltaPairTable(PairStatsView, DeltaConsumer):
    """Global scheme factors maintained under inserts and deletes.

    Every removal hook is the exact negation of its insert counterpart
    (1→0 transitions unwind edges, degrees and placement counts), so
    the table always equals a fresh build over its source's blocks.

    Args:
        source: what the pair statistics are read from and whose deltas
            keep the factors — the incremental block index (attach
            before the first insert: deltas are not replayed).
    """

    __slots__ = (
        "source",
        "placements",
        "degrees",
        "active_blocks",
        "total_assignments",
        "entities_placed",
        "edge_count",
        "_before",
    )

    def __init__(
        self, source: IncrementalBlockIndex | IncrementalProcessedView
    ) -> None:
        self.source = source
        #: entity id → placements in comparison-bearing blocks
        self.placements: dict[int, int] = {}
        #: entity id → distinct comparison partners (EJS degrees)
        self.degrees: dict[int, int] = {}
        #: number of comparison-bearing blocks
        self.active_blocks = 0
        #: total placements (the CEP/CNP budget numerator)
        self.total_assignments = 0
        #: entities with at least one placement
        self.entities_placed = 0
        #: number of distinct pairs (the blocking graph's edge count)
        self.edge_count = 0
        #: the touched entity's neighbours when the current event began
        self._before: set[int] = set()
        source.attach(self)

    # -- delta hooks ---------------------------------------------------------

    def on_placement(self, entity_id: int) -> None:
        count = self.placements.get(entity_id, 0)
        if count == 0:
            self.entities_placed += 1
        self.placements[entity_id] = count + 1
        self.total_assignments += 1

    def on_block_activated(self, key: str) -> None:
        self.active_blocks += 1

    def on_placement_removed(self, entity_id: int) -> None:
        count = self.placements[entity_id] - 1
        self.total_assignments -= 1
        if count == 0:
            del self.placements[entity_id]
            self.entities_placed -= 1
        else:
            self.placements[entity_id] = count

    def on_block_deactivated(self, key: str) -> None:
        self.active_blocks -= 1

    def on_event_begin(self, entity_id: int) -> None:
        self._before = self.source.neighbours_of(entity_id)

    def on_event_end(self, entity_id: int) -> None:
        self.fold_neighbours(
            {entity_id: self._before},
            {entity_id: self.source.neighbours_of(entity_id)},
        )

    def fold_neighbours(
        self, before: dict[int, set[int]], after: dict[int, set[int]]
    ) -> None:
        """Fold one batch of neighbour-set changes into ``degrees`` and
        ``edge_count``.

        *before* / *after* map every entity whose placements the batch
        moved to its neighbours around it.  A pair with both endpoints
        in the batch shows up from both sides and is counted once.
        """
        degrees = self.degrees
        alone = len(after) == 1  # nobody is their own neighbour
        edges = twice = 0
        for entity_id, now in after.items():
            was = before[entity_id]
            gained = now - was
            lost = was - now
            gained_outside = gained if alone else gained.difference(after)
            lost_outside = lost if alone else lost.difference(after)
            for partner in gained_outside:
                degrees[partner] = degrees.get(partner, 0) + 1
            for partner in lost_outside:
                remaining = degrees[partner] - 1
                if remaining:
                    degrees[partner] = remaining
                else:
                    del degrees[partner]
            if now:
                degrees[entity_id] = len(now)
            else:
                degrees.pop(entity_id, None)
            edges += len(gained_outside) - len(lost_outside)
            twice += (len(gained) - len(gained_outside)) - (
                len(lost) - len(lost_outside)
            )
        self.edge_count += edges + twice // 2

    # -- statistics ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct pairs tracked."""
        return self.edge_count

    def interner(self):
        """The store's URI ↔ dense-id mapping."""
        return self.source.store.interner

    def block_source(self):
        return self.source

    def _pair_keys(self):
        source = self.source
        for id_a in source.entity_ids():
            for id_b in source.neighbours_of(id_a):
                if id_a < id_b:
                    yield pack_pair(id_a, id_b)
