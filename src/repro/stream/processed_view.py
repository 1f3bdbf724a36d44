"""The incrementally-maintained processed (purged + filtered) view.

:meth:`~repro.stream.index.IncrementalBlockIndex.snapshot_processed`
pays batch prices at query time: purging and filtering thresholds are
global functions of the whole block-size distribution, so every
post-insert call re-runs both operators over a fresh snapshot.  This
module maintains the surviving block set **under inserts** instead:

* the block-cardinality distribution is tracked in a mergeable
  histogram (one level update per touched key), so the adaptive purging
  threshold is recomputed from the histogram — never from the blocks —
  and is **exact at all times**;
* filtering ratios are re-applied **per touched entity**: the inserted
  entity's retained (most selective) key set is recomputed from live
  cardinalities, while untouched entities keep their last ranking;
* the resulting view is therefore *approximate between reconciliations*
  — drift comes only from the per-entity filtering rankings of
  untouched entities — with a **bounded staleness counter** (inserts
  since the last reconciliation) and an exact
  :meth:`~IncrementalProcessedView.reconcile` that re-ranks what can
  have drifted and repairs the survivor state in place, every K inserts
  (see :attr:`~IncrementalProcessedView.due`) or on demand.  A
  reconcile leaves *state*, not a collection: it builds no block and
  takes no index snapshot (so it never runs the index's lazy posting
  re-sort either); :meth:`~IncrementalProcessedView.materialize`
  derives the ``BlockCollection`` from the survivor state when asked.

A drain costs what it changes: presence is decided from the side sizes
plus the key's membership delta, a key that stays exposed moves only
its delta placements, and only a presence flip walks a block.  An
attached :class:`~repro.stream.pairs.DeltaPairTable` receives one hook
per moved placement and one before/after neighbour-set difference per
batch of transitions, so its global factors follow the processed view
the way they follow the raw index, and a query's star reads the
exposed member sets (:meth:`~IncrementalProcessedView.postings`) — no
comparison cell is ever enumerated.

**Contract:** immediately after :meth:`reconcile`, the view
materializes equal to ``snapshot_processed(purging, filtering)`` — same
blocks, members, cardinalities and id views — and attached survivor
statistics equal a batch graph built over that processed collection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocking.block import BlockCollection, csr_from_lists
from repro.blocking.filtering import BlockFiltering, retained_keys
from repro.blocking.purging import BlockPurging, threshold_from_histogram
from repro.obs import DISABLED
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex, neighbours


@dataclass(frozen=True)
class ReconcileReport:
    """Outcome of one exact reconciliation pass."""

    #: inserts the view absorbed approximately since the last reconcile
    staleness: int
    wall_s: float
    blocks_added: int
    blocks_removed: int
    placements_added: int
    placements_removed: int
    #: surviving blocks after the repair
    exact_blocks: int
    #: ``"full"`` (every entity re-ranked, every key re-evaluated) or
    #: ``"partial"`` (key-partitioned repair over the dirty
    #: blocks/entities only)
    mode: str = "full"
    #: entities whose retained sets the pass recomputed
    entities_repaired: int = 0

    @property
    def drift(self) -> int:
        """Total structural difference repaired (blocks + placements)."""
        return (
            self.blocks_added
            + self.blocks_removed
            + self.placements_added
            + self.placements_removed
        )


class IncrementalProcessedView(DeltaConsumer):
    """Purge/filter-surviving block set maintained under inserts.

    Args:
        index: the incremental block index to subscribe to.  Attach
            before the first insert (or replay the store afterwards, as
            :class:`~repro.stream.resolver.StreamResolver` does).
        purging: the purging operator whose policy the view enforces
            (adaptive threshold by default; ``max_cardinality`` pins it).
        filtering: the filtering operator (ratio) applied per entity.
        reconcile_every: reconcile cadence in inserts; ``None`` (the
            default) adapts the cadence to the corpus —
            ``max(16, keys // 4)`` — which keeps the *amortized*
            per-query reconciliation cost flat as the stream grows.
    """

    def __init__(
        self,
        index: IncrementalBlockIndex,
        purging: BlockPurging | None = None,
        filtering: BlockFiltering | None = None,
        reconcile_every: int | None = None,
    ) -> None:
        if reconcile_every is not None and reconcile_every < 1:
            raise ValueError("reconcile_every must be >= 1 (or None for adaptive)")
        self.index = index
        self.purging = purging or BlockPurging()
        self.filtering = filtering or BlockFiltering()
        self.reconcile_every = reconcile_every
        #: observability handle (the owning resolver re-points this)
        self.obs = DISABLED
        #: exact reconciliations performed so far
        self.reconcile_count = 0
        #: pending-buffer drains performed so far (always counted, so
        #: traced span counts can be cross-checked against it)
        self.drain_count = 0
        #: report of the most recent :meth:`reconcile` (None before any)
        self.last_report: ReconcileReport | None = None
        #: keys touched since the last application (ordered, deduplicated)
        self._pending_keys: dict[str, None] = {}
        #: entities touched since the last application
        self._pending_entities: dict[int, None] = {}
        #: key → (cardinality, assignments) for currently-active keys
        self._card: dict[str, tuple[int, int]] = {}
        #: cardinality level → [total assignments, keys at this level];
        #: the mergeable histogram the purging threshold is derived from
        self._hist: dict[int, list] = {}
        self._threshold = (
            self.purging.max_cardinality
            if self.purging.max_cardinality is not None
            else 1
        )
        self._threshold_dirty = False
        #: entity id → retained key set, as of the entity's last touch
        self._retained: dict[int, frozenset[str]] = {}
        #: key → per-side candidate member sets (entities retaining it)
        self._members: dict[str, tuple[set[int], set[int]]] = {}
        #: keys currently exposed by the view (purge + member floors met)
        self._present: set[str] = set()
        #: entity id → {key: side bitmask} over present blocks only
        self._entity_keys: dict[int, dict[str, int]] = {}
        #: keys whose cardinality or purge-eligibility may have changed
        #: since the last reconciliation (drives the partial repair)
        self._dirty_keys: set[str] = set()
        #: entities touched (inserted/deleted under any key) since the
        #: last reconciliation
        self._dirty_entities: set[int] = set()
        #: the first reconcile must be full — before it, untouched
        #: entities have never had their retained sets computed at all
        self._reconciled_once = False
        #: attached statistics tables (``DeltaPairTable(view)``)
        self._consumers: list[DeltaConsumer] = []
        #: notified when a non-empty pending buffer is about to drain
        #: (the durability layer's write-ahead hook)
        self._apply_listeners: list = []
        self._reconciled_version = index.store.version
        #: :meth:`materialize` cache: (store version, collection)
        self._materialized: tuple[int, BlockCollection] | None = None
        index.attach(self)

    # -- wiring --------------------------------------------------------------

    def attach(self, consumer: DeltaConsumer) -> None:
        """Attach a statistics table, a
        :class:`~repro.stream.pairs.DeltaPairTable` (attach before
        inserting).

        It gets the index's placement and block hooks, for *exposed*
        placements and blocks, and one ``fold_neighbours(before,
        after)`` per batch of transitions.
        """
        self._consumers.append(consumer)

    @property
    def store(self):
        """The store behind the index (what an attached table interns by)."""
        return self.index.store

    def subscribe_apply(self, listener) -> None:
        """Call *listener* just before a non-empty pending drain.

        The position of each drain in the event stream determines what
        the approximate survivor state computes, so crash recovery logs
        and replays drains like any other event.
        """
        self._apply_listeners.append(listener)

    def on_key_update(self, key: str, entity_id: int, source: int) -> None:
        """Index hook: buffer the touched key/entity for lazy application."""
        self._pending_keys[key] = None
        self._pending_entities[entity_id] = None

    # -- staleness contract --------------------------------------------------

    @property
    def staleness(self) -> int:
        """Inserts absorbed since the last reconciliation (0 = exact)."""
        return self.index.store.version - self._reconciled_version

    @property
    def reconcile_interval(self) -> int:
        """The staleness bound that makes the view :attr:`due`."""
        if self.reconcile_every is not None:
            return self.reconcile_every
        return max(16, len(self.index) // 4)

    @property
    def due(self) -> bool:
        """True when the staleness bound is reached."""
        return self.staleness >= self.reconcile_interval

    @property
    def threshold(self) -> int:
        """The current (histogram-exact) purging cardinality threshold."""
        self._apply_pending()
        return self._current_threshold()

    # -- histogram maintenance -----------------------------------------------

    def _hist_add(self, key: str, cardinality: int, assignments: int) -> None:
        entry = self._hist.get(cardinality)
        if entry is None:
            entry = [0, set()]
            self._hist[cardinality] = entry
        entry[0] += assignments
        entry[1].add(key)

    def _hist_remove(self, key: str, cardinality: int, assignments: int) -> None:
        entry = self._hist[cardinality]
        entry[0] -= assignments
        entry[1].discard(key)
        if not entry[1]:
            del self._hist[cardinality]

    def _histogram_now(self) -> dict[int, tuple[int, int]]:
        """The maintained histogram projected to batch shape (no apply)."""
        return {
            level: (level * len(keys), assigns)
            for level, (assigns, keys) in self._hist.items()
        }

    def histogram(self) -> dict[int, tuple[int, int]]:
        """Level → (comparisons, assignments), batch-comparable.

        Equals :func:`repro.blocking.purging.cardinality_histogram` over
        the raw snapshot at all times (the exactness invariant the
        property suite asserts).
        """
        self._apply_pending()
        return self._histogram_now()

    def _current_threshold(self) -> int:
        if self.purging.max_cardinality is not None:
            # Pinned policy: keep the presence checks' threshold in sync
            # (they read self._threshold, not the operator).
            self._threshold = self.purging.max_cardinality
            return self._threshold
        if self._threshold_dirty:
            self._threshold = threshold_from_histogram(
                self._histogram_now(), self.purging.smoothing
            )
            self._threshold_dirty = False
        return self._threshold

    # -- delta application ---------------------------------------------------

    def _retained_for(self, entity_id: int, threshold: int) -> list[str]:
        """The entity's retained keys under the live cardinalities.

        A key counts once per side the entity holds it on, as in the
        batch operator's per-entity key list (a URI both KBs describe is
        placed twice in such a block).
        """
        card = self._card
        eligible = [
            key
            for key, mask in self.index.keys_of(entity_id).items()
            if key in card and card[key][0] <= threshold
            for _side in range(mask.bit_count())
        ]
        return retained_keys(
            eligible, lambda key: card[key][0], self.filtering.ratio
        )

    def _member_mask(self, key: str, entity_id: int) -> int:
        sides = self._members.get(key)
        if sides is None:
            return 0
        mask = 1 if entity_id in sides[0] else 0
        if entity_id in sides[1]:
            mask |= 2
        return mask

    def _exposable(self, key: str, size0: int, size1: int) -> bool:
        """Would *key* be exposed with these candidate side sizes?"""
        entry = self._card.get(key)
        if entry is None or entry[0] > self._threshold:
            return False
        if self.index.two_sided:
            return size0 > 0 and size1 > 0
        return size0 >= 2

    def _apply_pending(self) -> None:
        """Fold buffered key/entity touches into the survivor state.

        O(touched keys + touched entities' keys + membership deltas):
        histogram levels update per touched key, the threshold comes
        from the histogram, retained sets are recomputed only for the
        touched entities, and presence is re-evaluated only for keys
        whose inputs changed (touched, threshold-crossing, or
        membership-diffed).
        """
        if not self._pending_keys and not self._pending_entities:
            return
        # Write-ahead hook: draining the buffer transitions the
        # approximate survivor state, and *when* the drain happens
        # (relative to the insert stream) changes what it computes — so
        # crash recovery must replay applies at their original
        # positions.  Listeners (the durability controller) log the
        # event before any state moves.
        for listener in self._apply_listeners:
            listener()
        self.drain_count += 1
        if not self.obs.enabled:
            self._drain()
            return
        with self.obs.span(
            "stream.view.drain",
            keys=len(self._pending_keys),
            entities=len(self._pending_entities),
        ):
            self._drain()

    def _drain(self) -> None:
        """The drain body: fold the buffered touches (see above)."""
        index = self.index
        pending_keys = list(self._pending_keys)
        pending_entities = list(self._pending_entities)
        self._pending_keys = {}
        self._pending_entities = {}

        # 1. exact histogram + per-key cardinality bookkeeping
        for key in pending_keys:
            old = self._card.get(key)
            new = (
                (index.cardinality_of(key), index.members_of(key))
                if index.is_active(key)
                else None
            )
            if new == old:
                continue
            if old is not None:
                self._hist_remove(key, old[0], old[1])
            if new is not None:
                self._hist_add(key, new[0], new[1])
                self._card[key] = new
            else:
                self._card.pop(key, None)
            self._threshold_dirty = True

        # 2. threshold from the histogram; collect crossing keys
        old_threshold = self._threshold
        new_threshold = self._current_threshold()
        crossing: set[str] = set()
        if new_threshold != old_threshold:
            low, high = sorted((old_threshold, new_threshold))
            for level, (_assigns, keys) in self._hist.items():
                if low < level <= high:
                    crossing.update(keys)

        # 3. retained-set recompute for touched entities → membership deltas
        affected: dict[str, None] = dict.fromkeys(pending_keys)
        affected.update(dict.fromkeys(crossing))
        mem_delta = self._retained_deltas(pending_entities, new_threshold, affected)

        # 4. presence transitions, key by key, in deterministic order
        self._apply_transitions(affected, mem_delta)

        # Partial-reconcile bookkeeping: everything whose survivor
        # inputs this drain may have shifted stays dirty until the next
        # exact repair.
        self._dirty_keys.update(affected)
        self._dirty_entities.update(pending_entities)

    def _retained_deltas(
        self,
        entities,
        threshold: int,
        affected: dict[str, None],
    ) -> dict[str, list[tuple[int, int, int]]]:
        """Recompute *entities*' retained sets; collect membership deltas.

        Updates ``_retained`` in place, marks every key whose candidate
        membership changed in *affected*, and returns the per-key
        placement deltas to feed :meth:`_apply_transitions`.
        """
        index = self.index
        mem_delta: dict[str, list[tuple[int, int, int]]] = {}
        for entity_id in entities:
            old_r = self._retained.get(entity_id, frozenset())
            new_r = frozenset(self._retained_for(entity_id, threshold))
            if new_r:
                self._retained[entity_id] = new_r
            else:
                self._retained.pop(entity_id, None)
            masks = index.keys_of(entity_id)
            for key in old_r | new_r:
                desired = masks.get(key, 0) if key in new_r else 0
                current = self._member_mask(key, entity_id)
                if desired == current:
                    continue
                for source in (0, 1):
                    bit = 1 << source
                    if desired & bit and not current & bit:
                        mem_delta.setdefault(key, []).append(
                            (entity_id, source, 1)
                        )
                    elif current & bit and not desired & bit:
                        mem_delta.setdefault(key, []).append(
                            (entity_id, source, -1)
                        )
                affected[key] = None
        return mem_delta

    def _apply_transitions(
        self,
        affected: dict[str, None],
        mem_delta: dict[str, list[tuple[int, int, int]]],
    ) -> tuple[int, int, int, int]:
        """Re-evaluate presence per affected key and expose the result.

        Presence comes from the candidate side sizes plus the key's
        delta — no block is read, let alone copied, to decide it.  Keys
        are visited in sorted order.  Returns ``(blocks_added,
        blocks_removed, placements_added, placements_removed)``.
        """
        present = self._present
        members = self._members
        changes: list[tuple[str, bool, bool, list]] = []
        for key in sorted(affected):
            deltas = mem_delta.get(key, ())
            sides = members.get(key)
            sizes = [len(sides[0]), len(sides[1])] if sides is not None else [0, 0]
            for _entity_id, source, delta in deltas:
                sizes[source] += delta
            was = key in present
            now = self._exposable(key, sizes[0], sizes[1])
            if deltas or was != now:
                changes.append((key, was, now, deltas))
        return self._expose(changes)

    def _expose(
        self, changes: list[tuple[str, bool, bool, list]]
    ) -> tuple[int, int, int, int]:
        """Fold ``(key, was exposed, is exposed, membership deltas)`` in.

        The one routine every drain and every reconciliation ends in.  A
        key that stays exposed moves only its delta placements; only a
        presence flip walks a block.  Attached tables get a hook per
        moved placement and, around the whole batch, the neighbour sets
        of every entity an exposed placement moved for.

        Returns:
            ``(blocks_added, blocks_removed, placements_added,
            placements_removed)``.
        """
        members = self._members
        present = self._present
        consumers = self._consumers
        touched: set[int] = set()
        if consumers:
            for key, was, now, deltas in changes:
                if was != now and key in members:
                    touched.update(*members[key])
                if was or now:
                    touched.update(delta[0] for delta in deltas)
            before = {entity: self._neighbours(entity) for entity in touched}

        blocks_added = blocks_removed = added = removed = 0
        for key, was, now, deltas in changes:
            sides = members.get(key)
            if sides is None:
                sides = members[key] = (set(), set())
            if was and not now:
                removed += self._place_block(key, sides, -1)
                present.discard(key)
                blocks_removed += 1
            for entity_id, source, delta in deltas:
                if delta > 0:
                    sides[source].add(entity_id)
                else:
                    sides[source].discard(entity_id)
                if was and now:
                    self._place(entity_id, key, 1 << source, delta)
                    if delta > 0:
                        added += 1
                    else:
                        removed += 1
            if now and not was:
                present.add(key)
                blocks_added += 1
                added += self._place_block(key, sides, 1)
            if was != now:
                for consumer in consumers:
                    if now:
                        consumer.on_block_activated(key)
                    else:
                        consumer.on_block_deactivated(key)
            if not sides[0] and not sides[1]:
                del members[key]

        if touched:
            after = {entity: self._neighbours(entity) for entity in touched}
            for consumer in consumers:
                consumer.fold_neighbours(before, after)
        return blocks_added, blocks_removed, added, removed

    def _place_block(self, key: str, sides: tuple[set, set], delta: int) -> int:
        """(Un)expose every member of *key*; returns the placements moved."""
        for source in (0, 1):
            for entity_id in sides[source]:
                self._place(entity_id, key, 1 << source, delta)
        return len(sides[0]) + len(sides[1])

    def _place(self, entity_id: int, key: str, bit: int, delta: int) -> None:
        """One exposed placement (dis)appears: per-entity mask + hooks."""
        entity_keys = self._entity_keys
        keys = entity_keys.get(entity_id)
        if delta > 0:
            if keys is None:
                keys = entity_keys[entity_id] = {}
            keys[key] = keys.get(key, 0) | bit
        else:
            mask = keys[key] & ~bit
            if mask:
                keys[key] = mask
            else:
                del keys[key]
                if not keys:
                    del entity_keys[entity_id]
        for consumer in self._consumers:
            if delta > 0:
                consumer.on_placement(entity_id)
            else:
                consumer.on_placement_removed(entity_id)

    def _neighbours(self, entity_id: int) -> set[int]:
        """Entities sharing an exposed comparison cell with *entity_id*
        (the survivor state as it stands: no drain)."""
        return neighbours(
            entity_id,
            self._entity_keys.get(entity_id, {}),
            self._members,
            self.index.two_sided,
        )

    # -- serving -------------------------------------------------------------

    def keys_of(self, entity_id: int) -> dict[str, int]:
        """Key → side-bitmask map over *present* blocks (live view)."""
        self._apply_pending()
        return self._entity_keys.get(entity_id, {})

    def entity_ids(self) -> list[int]:
        """Ids of every entity placed in at least one present block."""
        self._apply_pending()
        return list(self._entity_keys)

    def neighbours_of(self, entity_id: int) -> set[int]:
        """Every entity sharing a surviving comparison cell with the
        entity — the survivor graph's edge set around one node, and a
        query's candidates under the view."""
        self._apply_pending()
        return self._neighbours(entity_id)

    def cardinality_of(self, key: str) -> int:
        """Comparisons the view's (filtered) block implies (0 if absent)."""
        if key not in self._present:
            return 0
        sides = self._members[key]
        if self.index.two_sided:
            return len(sides[0]) * len(sides[1]) - len(sides[0] & sides[1])
        count = len(sides[0])
        return count * (count - 1) // 2

    def postings(self, key: str) -> tuple[set[int], set[int]]:
        """The per-side member sets of an exposed *key* (live; do not
        mutate): the view's counterpart of the index's posting lists,
        what a query star reads its partners from."""
        return self._members[key]

    # -- materialization -----------------------------------------------------

    def materialize(self) -> BlockCollection:
        """The view as a ``BlockCollection``, built on demand.

        Equal to ``snapshot_processed`` right after a reconciliation
        with no inserts since; the approximate survivor state otherwise.
        Cached per (store version, reconciliation).
        """
        self._apply_pending()
        version = self.index.store.version
        cached = self._materialized
        if cached is None or cached[0] != version:
            cached = self._materialized = (version, self._build_collection())
        return cached[1]

    def _build_collection(self) -> BlockCollection:
        """Materialize the survivor state (batch-identical shape/order)."""
        index = self.index
        names = [collection.name for collection in index.store.collections]
        if index.two_sided:
            raw_name = f"{index.blocker.name}({names[0]},{names[1]})"
        else:
            raw_name = f"{index.blocker.name}({names[0]})"
        keys = sorted(self._present)
        sides = [
            [
                sorted(self._members[key][source], key=lambda e: index.arrival_rank(e, source))
                if source == 0 or index.two_sided
                else ()
                for key in keys
            ]
            for source in (0, 1)
        ]
        return BlockCollection.from_members(
            f"filtered(purged({raw_name}))", keys, index.store.interner.uri_table(),
            *csr_from_lists(sides[0]), *csr_from_lists(sides[1]), index.two_sided,
        )

    # -- reconciliation ------------------------------------------------------

    def reconcile(self, full: bool = False) -> ReconcileReport:
        """Repair the view's drift; leave it exact for the current version.

        Two repair strategies behind the same contract (the view
        materializes equal to ``snapshot_processed`` afterwards):

        * **full** — recompute every entity's retained set and
          re-evaluate every key.  Cost is proportional to the whole
          corpus.  Forced on the first reconciliation (and the first
          after a durability restore), when no dirty bookkeeping exists
          yet, or when *full* is passed.
        * **partial** — key-partitioned repair.  Between reconciles the
          only entities whose retained sets can have drifted are those
          touched directly or sharing a key whose cardinality or
          threshold-eligibility changed (the drains keep everything
          else exact).  Recompute just that dirty closure and
          re-evaluate the affected keys.  Cost is proportional to the
          churn, not the corpus.

        Both end in :meth:`_expose`, which moves every block and
        placement the approximation got wrong (and tells the attached
        statistics table).  Nothing else is built: the repaired survivor
        state is what the next query reads, and :meth:`materialize`
        derives the collection from it if anyone asks.
        """
        # Metric-only timing (no span: the resolver's query path owns the
        # reconcile span); the measured wall feeds both the report and
        # the registry, so legacy stats and metrics.txt agree exactly.
        timer = self.obs.timed(metric="repro.stream.view.reconcile.seconds")
        timer.__enter__()
        self._apply_pending()
        index = self.index
        staleness = self.staleness
        if full or not self._reconciled_once:
            mode = "full"
            # Post-drain, a retained set belongs to an indexed entity: a
            # delete touches the entity, and the drain drops its entry.
            entities = set(index.entity_ids())
            keys = self._card.keys() | self._present
        else:
            # The dirty closure: entities touched since the last
            # reconcile, plus the posting lists of every key whose
            # cardinality or threshold-eligibility changed — only their
            # filtering rankings can have drifted.
            mode = "partial"
            entities = set(self._dirty_entities)
            keys = self._dirty_keys
            for key in keys:
                for side in index.postings(key):
                    entities.update(side)
        affected: dict[str, None] = dict.fromkeys(keys)
        mem_delta = self._retained_deltas(
            sorted(entities), self._current_threshold(), affected
        )
        # Threshold exact (histogram invariant) and every drifted entity
        # re-ranked: the view now holds the exact processed snapshot.
        blocks_added, blocks_removed, placements_added, placements_removed = (
            self._apply_transitions(affected, mem_delta)
        )
        self._materialized = None  # same store version, repaired state
        self._reconciled_version = index.store.version
        self._reconciled_once = True
        self._dirty_keys.clear()
        self._dirty_entities.clear()
        self.reconcile_count += 1
        timer.__exit__(None, None, None)
        report = ReconcileReport(
            staleness=staleness,
            wall_s=timer.duration_s,
            blocks_added=blocks_added,
            blocks_removed=blocks_removed,
            placements_added=placements_added,
            placements_removed=placements_removed,
            exact_blocks=len(self._present),
            mode=mode,
            entities_repaired=len(entities),
        )
        self.last_report = report
        return report
