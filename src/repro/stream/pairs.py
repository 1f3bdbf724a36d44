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

All six schemes are therefore evaluable for any single pair in
O(keys-of-the-smaller-endpoint), with **no global rebuild**: exactly
what query-time resolution needs.
"""

from __future__ import annotations

from repro.metablocking import scheme_defs
from repro.model.interner import PAIR_MASK, PAIR_SHIFT, pack_pair
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex

#: the weighting-scheme names the table can evaluate
SCHEME_NAMES = scheme_defs.SCHEME_NAMES


class PairStatsView:
    """Scheme evaluation over maintained per-pair + global statistics.

    The six weighting schemes are pure functions of ``(common, arcs)``
    plus a handful of global factors; this mixin holds those expressions
    once so every incrementally-maintained statistics table — the raw
    :class:`DeltaPairTable` and the processed-view
    :class:`~repro.stream.processed_view.SurvivorPairTable` — evaluates
    them identically.  Subclasses provide:

    * :meth:`block_source` — the structure the per-pair statistics
      (:meth:`common_of` / :meth:`arcs_of`) are read from;
    * ``placements`` (entity id → block placements), ``degrees``
      (entity id → distinct partners), ``active_blocks`` and
      ``edge_count`` — the global factors;
    * :meth:`interner` — the URI ↔ id mapping behind :meth:`weight`.

    The expressions mirror the reference
    :meth:`~repro.metablocking.weighting.WeightingScheme.weight`
    implementations term for term (float products associate
    left-to-right with the lexicographically smaller URI first), so the
    results equal what a freshly built batch graph over the subclass's
    block universe would assign.
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

    def _shared_cells(self, id_a: int, id_b: int):
        """``(cells, cardinality)`` per block holding the (distinct)
        pair, in sorted-key order — the batch enumeration's order."""
        source = self.block_source()
        shared = source.keys_of(id_a).keys() & source.keys_of(id_b).keys()
        for key in sorted(shared):
            cells = source.cells_between(key, id_a, id_b)
            if cells:
                yield cells, source.cardinality_of(key)

    def common_of(self, id_a: int, id_b: int) -> int:
        """Common-block count of the pair (0 when never co-blocked)."""
        return sum(cells for cells, _ in self._shared_cells(id_a, id_b))

    def arcs_of(self, id_a: int, id_b: int) -> float:
        """Lazy ARCS sum of the pair, bit-identical to the batch path.

        The batch reference walks blocks in sorted-key order and adds
        ``1 / cardinality`` once per comparison cell; this walks the
        pair's shared keys in the same order, reading each block's
        *current* cardinality — identical terms, identical order,
        identical floats.
        """
        arcs = 0.0
        for cells, cardinality in self._shared_cells(id_a, id_b):
            if not cardinality:
                continue
            contribution = 1.0 / cardinality
            for _ in range(cells):
                arcs += contribution
        return arcs

    def interner(self):
        """The URI ↔ dense-id mapping of the underlying store."""
        raise NotImplementedError

    # -- scheme evaluation ---------------------------------------------------

    def stats_of(self, id_a: int, id_b: int) -> tuple[int, float]:
        """(common, arcs) of the pair — the weighting schemes' inputs."""
        return self.common_of(id_a, id_b), self.arcs_of(id_a, id_b)

    def weight(self, scheme_name: str, uri_a: str, uri_b: str) -> float:
        """Edge weight of a pair under *scheme_name*, batch-identical.

        Raises:
            KeyError: for unknown scheme or unknown URIs.
        """
        interner = self.interner()
        if uri_b < uri_a:
            uri_a, uri_b = uri_b, uri_a
        return self.weight_ids(
            scheme_name, interner.id_of(uri_a), interner.id_of(uri_b)
        )

    def weight_ids(self, scheme_name: str, id_a: int, id_b: int) -> float:
        """Like :meth:`weight` over ids; ``id_a`` must be the endpoint
        whose URI sorts first (the bit-identity argument order)."""
        name = scheme_name.upper()
        if name == "ARCS":
            return self.arcs_of(id_a, id_b)
        common = self.common_of(id_a, id_b)
        if name == "CBS":
            return scheme_defs.cbs_weight(common)
        placements = self.placements
        total = max(self.active_blocks, 1)
        if name == "ECBS":
            idf_a = scheme_defs.ecbs_log_factor(total, placements.get(id_a, 1))
            idf_b = scheme_defs.ecbs_log_factor(total, placements.get(id_b, 1))
            return scheme_defs.factor_product(common, idf_a, idf_b)
        in_a = placements.get(id_a, 0)
        in_b = placements.get(id_b, 0)
        if name in ("JS", "EJS"):
            js = scheme_defs.js_weight(
                common, scheme_defs.js_union(in_a, in_b, common)
            )
            if name == "JS":
                return js
            edge_count = max(self.edge_count, 1)
            degrees = self.degrees
            idf_a = scheme_defs.ejs_log_factor(edge_count, degrees.get(id_a, 0))
            idf_b = scheme_defs.ejs_log_factor(edge_count, degrees.get(id_b, 0))
            return scheme_defs.factor_product(js, idf_a, idf_b)
        if name == "X2":
            return scheme_defs.chi_square_statistic(common, in_a, in_b, total)
        raise KeyError(
            f"unknown weighting scheme {scheme_name!r}; choose from {SCHEME_NAMES}"
        )

    def as_reference_stats(self) -> dict[tuple[str, str], tuple[int, float]]:
        """URI-keyed (common, arcs) map, comparable to the batch oracle.

        Matches the string-loop oracle of the batch pair table
        (``tests/metablocking/string_graph_oracle.py``) over the
        subclass's block universe — entry for entry.  Meant for the
        equivalence suite and for audits; cost is O(pairs).
        """
        uris = self.interner().uri_table()
        out: dict[tuple[str, str], tuple[int, float]] = {}
        for key, count in self._common_items():
            id_a, id_b = key >> PAIR_SHIFT, key & PAIR_MASK
            uri_a, uri_b = uris[id_a], uris[id_b]
            if uri_b < uri_a:
                uri_a, uri_b = uri_b, uri_a
            out[(uri_a, uri_b)] = (count, self.arcs_of(id_a, id_b))
        return out

    def _common_items(self):
        """Iterate ``(packed pair, common)`` entries with ``common > 0``."""
        raise NotImplementedError


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

    def _common_items(self):
        source = self.source
        for id_a in source.entity_ids():
            for id_b in source.neighbours_of(id_a):
                if id_a < id_b:
                    yield pack_pair(id_a, id_b), self.common_of(id_a, id_b)
