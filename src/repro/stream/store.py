"""The streaming entity store.

One store owns the live corpus of a streaming ER deployment: one
:class:`~repro.model.collection.EntityCollection` per source (one for
dirty ER, two for clean-clean), a **global**
:class:`~repro.model.interner.EntityInterner` assigning each URI a dense
id on first sight, and a subscriber list notified after every insert —
that is how the incremental block index, the delta pair table and the
similarity cache stay current without polling.

Inserts follow collection semantics: re-inserting a URI merges the new
attribute–value pairs into the existing description (subscribers see the
*merged* description), so duplicate and out-of-order arrivals converge
to the same final state the batch pipeline would load.

Deletions are first-class events: :meth:`StreamingEntityStore.delete`
retracts a URI from every source holding it and notifies the delete
subscribers per source, so derived structures shed the entity's
postings, statistics and survivors by delta.  Ids are never reused —
the interner is append-only — which keeps every id-keyed structure
stable across retraction and re-insert (a re-inserted URI regains its
original arrival rank).

When a durability controller is attached (see
:mod:`repro.stream.durability`), every insert and delete is logged to
the write-ahead log **before** it is applied, and the controller is
offered a snapshot opportunity after the event has fully propagated.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.model.interner import EntityInterner

#: subscriber signature: (merged description, source ordinal, entity id,
#: was_present) — ``was_present`` is True for merge inserts.
InsertListener = Callable[[EntityDescription, int, int, bool], None]

#: delete-subscriber signature: (uri, source ordinal, entity id) —
#: fired once per source the URI was retracted from.
DeleteListener = Callable[[str, int, int], None]


class StreamingEntityStore:
    """Mutable wrapper over per-source entity collections.

    Args:
        sources: collection names, one per KB — ``("kb",)`` for dirty ER
            (default), ``("kb1", "kb2")`` for clean-clean.
        name: store label used in reports.

    Ids are stable for the lifetime of the store (the interner is
    append-only even under deletion), which is what lets every derived
    index be maintained by delta.
    """

    def __init__(
        self,
        sources: Sequence[str] = ("stream",),
        name: str = "stream",
    ) -> None:
        if not 1 <= len(sources) <= 2:
            raise ValueError("a streaming store serves one or two sources")
        self.name = name
        self.collections: list[EntityCollection] = [
            EntityCollection(name=source) for source in sources
        ]
        self.interner = EntityInterner()
        self._listeners: list[InsertListener] = []
        self._delete_listeners: list[DeleteListener] = []
        #: total mutations (inserts + deletes) accepted; doubles as the
        #: snapshot cache version, so a delete invalidates caches too
        self.version = 0
        #: attached durability controller (None = in-memory only); set
        #: via :meth:`repro.stream.durability.Durability.bind`
        self.durability = None
        #: WAL position :func:`repro.stream.durability.recover` rebuilt
        #: this store at (None = not recovered)
        self.recovered_lsn: int | None = None

    @property
    def clean_clean(self) -> bool:
        """True when the store serves two individually duplicate-free KBs."""
        return len(self.collections) == 2

    def __len__(self) -> int:
        """Distinct live descriptions across all sources."""
        return sum(len(collection) for collection in self.collections)

    def __repr__(self) -> str:
        return f"StreamingEntityStore({self.name!r}, {len(self)} descriptions)"

    def subscribe(self, listener: InsertListener, replay: bool = False) -> None:
        """Register *listener* for future inserts.

        With ``replay=True`` the listener is first fed every description
        already in the store (per source, in insertion order, one
        notification per URI with its merged description) — how derived
        structures attach to a non-empty store without missing state.
        """
        self._listeners.append(listener)
        if replay:
            for source, collection in enumerate(self.collections):
                for description in collection:
                    listener(
                        description,
                        source,
                        self.interner.id_of(description.uri),
                        False,
                    )

    def subscribe_delete(self, listener: DeleteListener) -> None:
        """Register *listener* for future deletions (no replay)."""
        self._delete_listeners.append(listener)

    def collection(self, source: int = 0) -> EntityCollection:
        """The live collection of *source* (do not mutate it directly)."""
        return self.collections[source]

    def get(self, uri: str) -> EntityDescription | None:
        """Description with *uri* from whichever source holds it."""
        for collection in self.collections:
            description = collection.get(uri)
            if description is not None:
                return description
        return None

    def insert(self, description: EntityDescription, source: int = 0) -> int:
        """Ingest one description into *source*; returns its entity id.

        Re-inserting a known URI merges attributes (collection
        semantics); subscribers always receive the merged description.

        Raises:
            IndexError: for an unknown source ordinal — checked before
                the event is logged or anything is mutated.
        """
        if not 0 <= source < len(self.collections):
            raise IndexError(
                f"unknown source ordinal {source!r}: the store serves "
                f"sources 0..{len(self.collections) - 1}"
            )
        collection = self.collections[source]
        if self.durability is not None:
            self.durability.log_insert(description, source)
        was_present = description.uri in collection
        collection.add(description)
        entity_id = self.interner.intern(description.uri)
        self.version += 1
        merged = collection[description.uri]
        for listener in self._listeners:
            listener(merged, source, entity_id, was_present)
        if self.durability is not None:
            self.durability.maybe_snapshot()
        return entity_id

    def insert_batch(
        self, descriptions: Iterable[EntityDescription], source: int = 0
    ) -> list[int]:
        """Ingest a micro-batch; equivalent to :meth:`insert` per item.

        Micro-batching amortizes the caller's overhead only — the
        resulting state is identical to one-at-a-time ingestion.
        """
        return [self.insert(description, source) for description in descriptions]

    def delete(self, uri: str) -> bool:
        """Retract *uri* from every source holding it.

        Returns True when at least one source held the URI.  Delete
        subscribers are notified once per source the URI left, after
        the retraction — the delta mirror of the insert notification.
        The store version is bumped exactly once per accepted delete
        (the cache-invalidation epoch), and the event is write-ahead
        logged when durability is attached.
        """
        entity_id = self.interner.get(uri, -1)
        if entity_id < 0 or all(uri not in c for c in self.collections):
            return False
        if self.durability is not None:
            self.durability.log_delete(uri)
        self.version += 1
        for source, collection in enumerate(self.collections):
            if collection.remove(uri):
                for listener in self._delete_listeners:
                    listener(uri, source, entity_id)
        if self.durability is not None:
            self.durability.maybe_snapshot()
        return True
