"""The pair table as a lazy view over the postings.

The batch :class:`~repro.metablocking.graph.PairTable` aggregates every
implied comparison of a finished block collection in one pass.  The
streaming table materialises no pair at all: a query's per-pair
statistics are **read from its source at query time**, in one pass over
the query's *star* (:meth:`DeltaPairTable.star`) — the query's keys in
ascending order, each key's cardinality read once, every cell against an
opposite-side member adding 1 to that member's ``common`` and ``1 /
cardinality`` to its ``arcs``: per pair, the terms the batch enumeration
accumulates, in its order (ARCS could never be kept eagerly anyway: a
block's reciprocal cardinality changes retroactively each time the
block grows).  What *is* maintained under inserts and deletes are the
six global factors the weighting schemes and pruners consume:
``placements``, ``active_blocks``, ``entities_placed`` and
``total_assignments`` from the per-placement hooks, ``degrees`` and
``edge_count`` from one set difference of the touched entity's
neighbours per event — two ``neighbours_of`` unions the table takes
itself, inside the index's event bracket.  The same table over the
processed view (``DeltaPairTable(view)``) reads the view's *exposed*
blocks, its neighbour differences taken once per batch of view
transitions.

A resolver keeps **one** table, the one its queries read — the raw one
over the index or the survivor one over a processed view, never both —
so nothing folds neighbour sets into statistics no query consults.

A query is weighed with the batch definitions themselves:
:meth:`DeltaPairTable.weigh` lays the star out as pair-table columns,
with **no global rebuild**, gathers the global factors of the query and
its candidates, and hands both to the registry scheme's
:meth:`~repro.metablocking.weighting.WeightingScheme.weight_array`.
"""

from __future__ import annotations

import numpy as _np

from repro.stream.index import DeltaConsumer, IncrementalBlockIndex
from repro.stream.processed_view import IncrementalProcessedView


class DeltaPairTable(DeltaConsumer):
    """The stream pair table: per-pair statistics read one query star at
    a time, global scheme factors maintained under inserts and deletes.

    Every removal hook is the exact negation of its insert counterpart
    (1→0 transitions unwind edges, degrees and placement counts), so
    the table always equals a fresh build over its source's blocks, and
    :meth:`weigh` assigns the weights a batch graph over those blocks
    would.

    Args:
        source: what the pair statistics are read from and whose deltas
            keep the factors — the incremental block index, or the
            processed view for statistics over its surviving blocks
            (attach before the first insert: deltas are not replayed).
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

    def star(self, entity_id: int) -> tuple[dict[int, int], dict[int, float]]:
        """``(common, arcs)`` of every pair around *entity_id*, keyed by
        partner, bit-identical to the batch path.

        One pass over the entity's keys in ascending order: each key's
        cardinality is read once, and each comparison cell against a
        member the source lists opposite the entity (its own side in a
        dirty store) adds 1 to that partner's ``common`` and ``1 /
        cardinality`` to its ``arcs`` — a bipartite block holding both
        on both sides counts twice.  Per pair these are the batch
        enumeration's terms in its order (blocks in sorted-key order),
        so the floats are identical.
        """
        source = self.source
        postings = source.postings
        two_sided = source.store.clean_clean
        common: dict[int, int] = {}
        arcs: dict[int, float] = {}
        for key, mask in sorted(source.keys_of(entity_id).items()):
            cardinality = source.cardinality_of(key)
            if not cardinality:
                continue
            contribution = 1.0 / cardinality
            sides = postings(key)
            if not two_sided:
                partners = sides[:1]
            elif mask == 3:
                partners = sides[::-1]
            else:
                partners = (sides[2 - mask],)  # the side opposite the entity's
            for members in partners:
                for member in members:
                    if member != entity_id:
                        common[member] = common.get(member, 0) + 1
                        arcs[member] = arcs.get(member, 0.0) + contribution
        return common, arcs

    def weigh(self, scheme, entity_id: int, candidate_ids) -> dict[int, float]:
        """Weights of the (query, candidate) pairs under *scheme*, a
        registry :class:`~repro.metablocking.weighting.WeightingScheme`.

        The query's :meth:`star` becomes pair-table columns under local
        ids — 0 for the query, ``1..n`` for the candidates in ascending
        entity-id order, the one order a neighbourhood is held in — in
        the batch argument order (the lexicographically smaller URI
        first), and *scheme* weighs them with the global factors
        gathered per local id.  A candidate never co-blocked with the
        query has ``(0, 0.0)``.

        Raises:
            KeyError: when *scheme* has no array path.
        """
        candidates = sorted(candidate_ids)
        if not candidates:
            return {}
        common, arcs = self.star(entity_id)
        uris = self.source.store.interner.uri_table()
        uri_q = uris[entity_id]
        ids_a, ids_b = [], []
        for local, candidate in enumerate(candidates, 1):
            if uris[candidate] < uri_q:
                ids_a.append(local)
                ids_b.append(0)
            else:
                ids_a.append(0)
                ids_b.append(local)
        nodes = [entity_id, *candidates]
        placements, degrees = self.placements, self.degrees
        if not scheme.prepare_arrays(
            _np.array([placements.get(node, 0) for node in nodes]),
            _np.array([degrees.get(node, 0) for node in nodes]),
            self.active_blocks,
            self.edge_count,
        ):
            raise KeyError(f"weighting scheme {scheme.name!r} has no array path")
        weights = scheme.weight_array(
            _np.array(ids_a),
            _np.array(ids_b),
            _np.array([common.get(candidate, 0) for candidate in candidates]),
            _np.array([arcs.get(candidate, 0.0) for candidate in candidates]),
        )
        return dict(zip(candidates, weights.tolist()))

    def as_reference_stats(self) -> dict[tuple[str, str], tuple[int, float]]:
        """URI-keyed (common, arcs) map, comparable to the batch oracle.

        Matches the string-loop oracle of the batch pair table
        (``tests/metablocking/string_graph_oracle.py``) over the
        source's block universe — entry for entry, each pair read from
        its smaller id's star.  Meant for the equivalence suite and for
        audits; cost is O(pairs).
        """
        uris = self.source.store.interner.uri_table()
        out: dict[tuple[str, str], tuple[int, float]] = {}
        for id_a in self.source.entity_ids():
            common, arcs = self.star(id_a)
            for id_b, count in common.items():
                if id_a < id_b:
                    pair = sorted((uris[id_a], uris[id_b]))
                    out[tuple(pair)] = (count, arcs[id_b])
        return out
