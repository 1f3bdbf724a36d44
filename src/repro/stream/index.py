"""The incremental inverted blocking index.

The batch blocker groups a frozen corpus by key in one pass; this index
maintains the same grouping under inserts.  Each insert computes the
description's blocking keys (token keys by default; pass a q-grams or
prefix-infix-suffix blocker for other key spaces), appends the entity to the
touched posting lists, and emits the **delta** — placements and block
activations, bracketed by an event-begin / event-end pair — to attached
consumers (the :class:`~repro.stream.pairs.DeltaPairTable`, the
:class:`~repro.stream.processed_view.IncrementalProcessedView`).

Comparison cells are never enumerated: the postings *are* the pair
table, read back one query star at a time
(:meth:`~IncrementalBlockIndex.postings`).  Per-insert Python work in
the index is O(keys) — one hook per posted key.  The index takes no
neighbour union on anyone's behalf: a consumer that maintains pair
counts (the raw ``DeltaPairTable``) reads
:meth:`~IncrementalBlockIndex.neighbours_of` itself inside the event
bracket, and a consumer that folds nothing (the view) costs nothing.
Global concerns are deferred, not dropped:

* posting lists are kept in per-source arrival order; an entity that
  gains a key *late* (attribute merge) is re-sorted **lazily, only for
  the touched key**, on the next snapshot;
* purging/filtering thresholds are global functions of the whole
  collection, so they are enforced lazily at :meth:`snapshot_processed`
  time (and incrementally by the processed view) rather than on every
  insert.

:meth:`snapshot` materializes a
:class:`~repro.blocking.block.BlockCollection` **bit-identical** to
``blocker.build(...)`` over the store's final collections — same keys,
same member order, same interner.
"""

from __future__ import annotations

from array import array

from repro.blocking.base import Blocker
from repro.blocking.block import BlockCollection, csr_from_lists
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.model.description import EntityDescription
from repro.stream.store import StreamingEntityStore


#: typecode of the posting-list arrays (signed 64-bit entity ids)
_POSTING_TYPECODE = "q"


def _posting_pair() -> tuple[array, array]:
    """A fresh (side-0, side-1) pair of array-backed posting lists.

    Postings are contiguous C int64 buffers (``array('q')``) with
    amortized-doubling appends — 8 bytes per entry instead of a pointer
    plus a boxed int, and iteration/`.tolist()` run at C speed.  Dirty
    stores use side 0 only.
    """
    return (array(_POSTING_TYPECODE), array(_POSTING_TYPECODE))


def neighbours(
    entity_id: int, key_masks: dict, members: dict, two_sided: bool
) -> set[int]:
    """Every entity sharing a comparison cell with *entity_id*.

    *key_masks* maps the entity's keys to the sides it holds them on,
    *members* a key to its per-side members; the result is the union of
    the entity's opposite-side members (its own side in a dirty store)
    over all its keys.  The one neighbour loop of the raw index (over
    its postings) and of the processed view (over its member sets).
    """
    found: set[int] = set()
    if two_sided:
        for key, mask in key_masks.items():
            sides = members[key]
            if mask & 1:
                found.update(sides[1])
            if mask & 2:
                found.update(sides[0])
    else:
        for key in key_masks:
            found.update(members[key][0])
    found.discard(entity_id)
    return found


class DeltaConsumer:
    """Interface for delta-maintained structures attached to the index.

    The index calls these hooks *during* each insert or delete, per
    touched key: placements/activations, then ``on_key_update``.  The
    ``*_removed``/``*_deactivated`` hooks mirror the insert hooks
    exactly — a delete emits the negation of the deltas the
    corresponding inserts emitted.  ``on_event_begin`` /
    ``on_event_end`` bracket every event that changes a posting.
    """

    __slots__ = ()

    def on_placement(self, entity_id: int) -> None:
        """One new placement of an entity in a comparison-bearing block."""

    def on_block_activated(self, key: str) -> None:
        """A block crossed from singleton/one-sided to comparison-bearing."""

    def on_placement_removed(self, entity_id: int) -> None:
        """One placement in a comparison-bearing block vanished."""

    def on_block_deactivated(self, key: str) -> None:
        """A block fell back below the comparison-bearing floor."""

    def on_key_update(self, key: str, entity_id: int, source: int) -> None:
        """The entity's posting under *key* on side *source* changed.

        Fired once per (event, key, side) **after** the posting append
        or removal and the placement hooks, so a consumer reading the
        index back sees the post-event state of the key.  This is the
        hook cardinality-sensitive maintainers (the incremental
        processed view) subscribe to; pair-statistics consumers can
        ignore it.
        """

    def on_event_begin(self, entity_id: int) -> None:
        """An event is about to change *entity_id*'s postings.

        Fired once per such event, first: the source still answers with
        the pre-event state, so a consumer that folds neighbour sets
        reads ``neighbours_of(entity_id)`` here and again in
        :meth:`on_event_end` — their difference is the pairs that came
        into being or vanished.
        """

    def on_event_end(self, entity_id: int) -> None:
        """The event is fully applied (fired last, once per event)."""


class IncrementalBlockIndex(DeltaConsumer):
    """Mutable inverted index: blocking key → per-source posting lists.

    Args:
        store: the streaming store to index; the index subscribes itself
            and reflects every insert from then on.
        blocker: key extractor (default: token blocking, the paper's
            stage-1 choice).  Any :class:`~repro.blocking.base.Blocker`
            whose ``keys_for`` grows monotonically under attribute
            merges is supported (token, q-grams, prefix-infix-suffix).
    """

    def __init__(
        self,
        store: StreamingEntityStore,
        blocker: Blocker | None = None,
    ) -> None:
        self.store = store
        self.blocker = blocker or TokenBlocking()
        self.two_sided = store.clean_clean
        #: key → (side-0 ids, side-1 ids) array-backed posting lists;
        #: dirty stores use side 0 only
        self._postings: dict[str, tuple[array, array]] = {}
        #: key → bitmask of sides needing a lazy re-sort (merge
        #: stragglers); cleared per side once that side is sorted, so a
        #: snapshot never re-sorts a key no straggler touched
        self._unsorted: dict[str, int] = {}
        #: posting-list sorts performed so far (observability: the
        #: no-redundant-sorts property test reads this)
        self.resort_count = 0
        #: entity id → {key: side bitmask}
        self._key_mask: dict[int, dict[str, int]] = {}
        #: per-source arrival rank of each entity id
        self._side_seq: list[dict[int, int]] = [{} for _ in store.collections]
        #: key → number of ids present on both sides (bipartite overlap)
        self._overlap: dict[str, int] = {}
        self._consumers: list[DeltaConsumer] = []
        #: snapshot cache: "raw" or ("processed", purge sig, filter sig)
        #: → (store version, collection); cleared on every insert
        self._snapshots: dict[object, tuple[int, BlockCollection]] = {}
        store.subscribe(self._on_insert)
        store.subscribe_delete(self._on_delete)

    # -- wiring --------------------------------------------------------------

    def attach(self, consumer: DeltaConsumer) -> None:
        """Attach a delta consumer (no replay: attach before inserting)."""
        self._consumers.append(consumer)

    def replay_store(self) -> None:
        """Index everything already in the store (attach consumers first).

        Idempotent: descriptions whose keys are already posted are
        skipped by the per-(entity, side, key) guard, so replaying after
        live inserts cannot double-count.  Called by the resolver when
        it wires onto a non-empty store.
        """
        store = self.store
        for source, collection in enumerate(store.collections):
            for description in collection:
                self._on_insert(
                    description,
                    source,
                    store.interner.id_of(description.uri),
                    False,
                )

    # -- insert path ---------------------------------------------------------

    def _on_insert(
        self,
        description: EntityDescription,
        source: int,
        entity_id: int,
        was_present: bool,
    ) -> None:
        seq = self._side_seq[source]
        if entity_id not in seq:
            seq[entity_id] = len(seq)
        my_seq = seq[entity_id]
        mask = self._key_mask.setdefault(entity_id, {})
        bit = 1 << source
        self._snapshots.clear()
        new_keys = [
            key
            for key in self.blocker.keys_for(description)
            if not mask.get(key, 0) & bit  # not yet posted on this side
        ]
        if not new_keys:
            return
        consumers = self._consumers
        for consumer in consumers:
            consumer.on_event_begin(entity_id)
        for key in new_keys:
            sides = self._postings.get(key)
            if sides is None:
                sides = _posting_pair()
                self._postings[key] = sides
            side = sides[source]
            if side and seq[side[-1]] > my_seq:
                # A merge granted this key after later arrivals claimed
                # it; ordering is restored lazily at snapshot time.
                self._unsorted[key] = self._unsorted.get(key, 0) | bit
            had_mask = mask.get(key, 0)
            mask[key] = had_mask | bit
            if had_mask:
                self._overlap[key] = self._overlap.get(key, 0) + 1

            if self.two_sided:
                other = sides[1 - source]
                was_active = bool(side) and bool(other)
                side.append(entity_id)
                if not was_active and side and other:
                    # The block just became comparison-bearing: every
                    # member (this one included) gains its placement now.
                    for consumer in consumers:
                        consumer.on_block_activated(key)
                        for member in sides[0]:
                            consumer.on_placement(member)
                        for member in sides[1]:
                            consumer.on_placement(member)
                elif was_active:
                    for consumer in consumers:
                        consumer.on_placement(entity_id)
            else:
                was_active = len(side) >= 2
                side.append(entity_id)
                if len(side) == 2:
                    for consumer in consumers:
                        consumer.on_block_activated(key)
                        consumer.on_placement(side[0])
                        consumer.on_placement(side[1])
                elif was_active:
                    for consumer in consumers:
                        consumer.on_placement(entity_id)
            for consumer in consumers:
                consumer.on_key_update(key, entity_id, source)
        for consumer in consumers:
            consumer.on_event_end(entity_id)

    # -- delete path ---------------------------------------------------------

    def _on_delete(self, uri: str, source: int, entity_id: int) -> None:
        """Shed the entity's side-*source* postings, emitting removal deltas.

        The mirror of :meth:`_on_insert`: for every key the entity held
        on this side, its placement vanishes (or the whole block's
        placements, when the removal drops the block below the
        comparison-bearing floor), then ``on_key_update`` fires so
        cardinality-sensitive consumers re-read the post-delete state;
        ``on_event_end`` closes the event.  The
        per-source arrival rank is **kept** — a re-inserted URI regains
        its original position, so snapshots stay bit-identical to a
        batch build over the final live corpus.
        """
        mask = self._key_mask.get(entity_id)
        if mask is None:
            return
        bit = 1 << source
        touched = [key for key, key_mask in mask.items() if key_mask & bit]
        if not touched:
            return
        self._snapshots.clear()
        consumers = self._consumers
        for consumer in consumers:
            consumer.on_event_begin(entity_id)
        for key in touched:
            sides = self._postings[key]
            side = sides[source]
            remaining_mask = mask[key] & ~bit
            if remaining_mask:
                mask[key] = remaining_mask
                # The entity no longer sits on both sides: one overlap
                # unit (added when the second side was claimed) unwinds.
                overlap = self._overlap.get(key, 0) - 1
                if overlap:
                    self._overlap[key] = overlap
                else:
                    self._overlap.pop(key, None)
            else:
                del mask[key]

            if self.two_sided:
                other = sides[1 - source]
                was_active = bool(other)  # side holds the entity, so nonempty
                side.remove(entity_id)
                if was_active and not (side and other):
                    # The block just lost comparison-bearing status:
                    # every member (this one included) loses its
                    # placement now — the negation of activation.
                    for consumer in consumers:
                        consumer.on_placement_removed(entity_id)
                        for member in sides[0]:
                            consumer.on_placement_removed(member)
                        for member in sides[1]:
                            consumer.on_placement_removed(member)
                        consumer.on_block_deactivated(key)
                elif was_active:
                    for consumer in consumers:
                        consumer.on_placement_removed(entity_id)
            else:
                side.remove(entity_id)
                if len(side) == 1:
                    for consumer in consumers:
                        consumer.on_placement_removed(entity_id)
                        consumer.on_placement_removed(side[0])
                        consumer.on_block_deactivated(key)
                elif len(side) >= 2:
                    for consumer in consumers:
                        consumer.on_placement_removed(entity_id)

            if not sides[0] and not sides[1]:
                del self._postings[key]
                self._unsorted.pop(key, None)
                self._overlap.pop(key, None)
            for consumer in consumers:
                consumer.on_key_update(key, entity_id, source)
        if not mask:
            del self._key_mask[entity_id]
        for consumer in consumers:
            consumer.on_event_end(entity_id)

    # -- interrogation -------------------------------------------------------

    def __len__(self) -> int:
        """Number of keys with at least one posting (active or not)."""
        return len(self._postings)

    def keys_of(self, entity_id: int) -> dict[str, int]:
        """Key → side-bitmask map of *entity_id* (live; do not mutate)."""
        return self._key_mask.get(entity_id, {})

    def entity_ids(self) -> list[int]:
        """Ids of every entity posted under at least one key."""
        return list(self._key_mask)

    def arrival_rank(self, entity_id: int, source: int) -> int:
        """Per-source arrival rank of the entity (the snapshot sort key)."""
        return self._side_seq[source][entity_id]

    def postings(self, key: str) -> tuple[array, array]:
        """The live posting lists of *key* (empty arrays when absent).

        Returned values are the index's own int64 arrays — iterate or
        copy, do not mutate.
        """
        return self._postings.get(key) or _posting_pair()

    def members_of(self, key: str) -> int:
        """Total postings of *key* across sides."""
        sides = self._postings.get(key)
        if sides is None:
            return 0
        return len(sides[0]) + len(sides[1])

    def is_active(self, key: str) -> bool:
        """True when *key*'s block would survive ``drop_singletons``."""
        sides = self._postings.get(key)
        if sides is None:
            return False
        if self.two_sided:
            return bool(sides[0]) and bool(sides[1])
        return len(sides[0]) >= 2

    def cardinality_of(self, key: str) -> int:
        """Comparisons the key's block implies right now (0 when absent).

        Matches :meth:`repro.blocking.block.Block.cardinality` — the
        bipartite product is corrected by the cross-side overlap.
        """
        sides = self._postings.get(key)
        if sides is None:
            return 0
        if self.two_sided:
            if not sides[0] or not sides[1]:
                return 0
            return len(sides[0]) * len(sides[1]) - self._overlap.get(key, 0)
        n = len(sides[0])
        return n * (n - 1) // 2 if n >= 2 else 0

    def neighbours_of(self, entity_id: int) -> set[int]:
        """Every entity sharing a comparison cell with *entity_id*: the
        pair table's edge set around one node, read straight from the
        postings, and a raw query's candidates."""
        return neighbours(
            entity_id, self._key_mask.get(entity_id, {}), self._postings, self.two_sided
        )

    # -- snapshots -----------------------------------------------------------

    def _resort_lazy(self) -> None:
        """Restore arrival order on straggler-touched posting sides.

        Only the sides a merge straggler actually disturbed are sorted;
        each marker is cleared once its side is sorted, so repeated
        snapshots never repeat the work (``resort_count`` counts real
        sorts for the property test asserting exactly that).
        """
        if not self._unsorted:
            return
        for key, stale in self._unsorted.items():
            sides = self._postings.get(key)
            if sides is None:
                continue
            for source, seq in enumerate(self._side_seq):
                if not stale & (1 << source):
                    continue
                side = sides[source]
                side[:] = array(
                    _POSTING_TYPECODE, sorted(side, key=seq.__getitem__)
                )
                self.resort_count += 1
        self._unsorted.clear()

    def snapshot(self) -> BlockCollection:
        """The current blocks as a batch-identical ``BlockCollection``.

        Bit-identical to ``self.blocker.build(*store.collections)`` over
        the store's present state: sorted keys, members in per-source
        arrival order, singletons dropped, ids in first-placement order.
        The posting lists are laid out as the block columns directly,
        over store ids, without translating a URI per placement.  Cached
        until the next insert.
        """
        cached = self._snapshots.get("raw")
        if cached is not None and cached[0] == self.store.version:
            return cached[1]
        self._resort_lazy()
        names = [collection.name for collection in self.store.collections]
        if self.two_sided:
            name = f"{self.blocker.name}({names[0]},{names[1]})"
            keys = [k for k, (one, two) in self._postings.items() if one and two]
        else:
            name = f"{self.blocker.name}({names[0]})"
            keys = [k for k, (one, _) in self._postings.items() if len(one) >= 2]
        keys.sort()
        postings = list(map(self._postings.__getitem__, keys))
        blocks = BlockCollection.from_members(
            name, keys, self.store.interner.uri_table(),
            *csr_from_lists([sides[0] for sides in postings]),
            *csr_from_lists([sides[1] if self.two_sided else () for sides in postings]),
            self.two_sided,
        )
        self._snapshots["raw"] = (self.store.version, blocks)
        return blocks

    def snapshot_processed(
        self,
        purging: BlockPurging | None = None,
        filtering: BlockFiltering | None = None,
    ) -> BlockCollection:
        """Post-processed snapshot: the lazily-enforced global thresholds.

        Purging and filtering thresholds depend on the *whole* block-size
        distribution, so exact enforcement per insert is impossible; they
        are applied here, on demand, over the raw snapshot — which is
        precisely what the batch pipeline's ``Pipeline.block()`` does,
        keeping the result bit-identical.  Cached until the next insert,
        **per operator parameterization**: the cache is keyed by the
        operators' ``signature()`` tuples, so non-default purging or
        filtering arguments get their own correctly-invalidated entry
        instead of a recompute (or, worse, a stale default-keyed hit).
        """
        purging = purging or BlockPurging()
        filtering = filtering or BlockFiltering()
        cache_key = ("processed", purging.signature(), filtering.signature())
        cached = self._snapshots.get(cache_key)
        if cached is not None and cached[0] == self.store.version:
            return cached[1]
        processed = filtering.process(purging.process(self.snapshot()))
        self._snapshots[cache_key] = (self.store.version, processed)
        return processed
