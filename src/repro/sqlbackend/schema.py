"""Relational schema of the meta-blocking pipeline, plus bulk loaders.

Four base tables hold a :class:`~repro.blocking.block.BlockCollection`
in interned int-id form:

```
entities(id PK, uri, rank)          one row per interned entity;
                                    rank = lexicographic URI rank
blocks(bord PK, bkey, bipartite,    one row per block, bord = insertion
       card, size)                  ordinal, card = comparisons, size =
                                    assignments
placements(bord, entity, side, pos) one row per block membership; pos =
                                    position within the block's side
```

Derived tables (``purged``/``keep``/``fplacements``/``fblocks``/
``pair_cells``/``pair_seq``/``pair_arcs``/``pair_stats``/``factors``/
``edges``) are created by the stage statements in
:mod:`repro.sqlbackend.compile`.  Every table a later statement probes
has a declared key: a single integer key is the ``INTEGER PRIMARY KEY``
(``purged``/``fblocks`` reuse the ``blocks`` DDL), a composite key is a
``UNIQUE`` index built after the bulk insert (``keep``, ``pair_cells``).

Because ``rank`` is order-isomorphic to the URI text and TEXT compares
bytewise on UTF-8 (= python's code-point order), every ``ORDER BY`` on
ranks reproduces the reference implementation's URI tie-breaks with
integer comparisons.
"""

from __future__ import annotations

from repro.blocking.block import BlockCollection
from repro.sqlbackend.engine import Session

#: executemany batch size for the bulk loaders
BATCH = 50_000



def block_table_ddl(name: str) -> str:
    """DDL of a ``blocks``-shaped table keyed on the block ordinal.

    ``blocks`` and its derived subsets ``purged`` and ``fblocks`` share
    it, so every join on ``bord`` probes a declared primary key.
    """
    return (
        f"CREATE TABLE {name} ("
        " bord INTEGER PRIMARY KEY, bkey TEXT NOT NULL,"
        " bipartite INTEGER NOT NULL, card INTEGER NOT NULL, size INTEGER NOT NULL)"
    )


DDL = (
    "CREATE TABLE entities ("
    " id INTEGER PRIMARY KEY, uri TEXT NOT NULL, rank INTEGER NOT NULL)",
    block_table_ddl("blocks"),
    "CREATE TABLE placements ("
    " bord INTEGER NOT NULL, entity INTEGER NOT NULL,"
    " side INTEGER NOT NULL, pos INTEGER NOT NULL)",
    "CREATE INDEX idx_placements_block ON placements (bord, side, pos)",
    "CREATE INDEX idx_placements_entity ON placements (entity)",
    "CREATE INDEX idx_blocks_card ON blocks (card)",
)


def create_schema(session: Session) -> None:
    """Create the base tables (fails loudly on a non-empty database)."""
    for statement in DDL:
        session.run(statement)


def batched(rows):
    batch = []
    for row in rows:
        batch.append(row)
        if len(batch) >= BATCH:
            yield batch
            batch = []
    if batch:
        yield batch


def load_collection(session: Session, blocks: BlockCollection) -> dict:
    """Bulk-load *blocks* into the base tables.

    Uses the collection's interned id views (ids in first-placement
    order, exactly the ids the numpy backbone uses) and returns the
    loading statistics the compiler's packed-key arithmetic needs:
    ``packmul`` (strictly greater than any entity id) and ``wmul``
    (strictly greater than any within-block position).
    """
    interner = blocks.interner()
    uris = interner.uri_table()
    # rank[id] = position of the id's URI in lexicographic order
    by_uri = sorted(range(len(uris)), key=uris.__getitem__)
    rank = [0] * len(uris)
    for position, entity_id in enumerate(by_uri):
        rank[entity_id] = position
    for batch in batched(
        (i, uris[i], rank[i]) for i in range(len(uris))
    ):
        session.executemany("INSERT INTO entities VALUES (?, ?, ?)", batch)

    id_blocks = blocks.id_blocks()
    keys = blocks.keys()
    max_side = 0
    block_rows = []
    for ordinal, (ids1, ids2, cardinality) in enumerate(id_blocks):
        size = len(ids1) + (len(ids2) if ids2 is not None else 0)
        block_rows.append(
            (ordinal, keys[ordinal], int(ids2 is not None), cardinality, size)
        )
        max_side = max(max_side, len(ids1), len(ids2) if ids2 is not None else 0)
    for batch in batched(iter(block_rows)):
        session.executemany("INSERT INTO blocks VALUES (?, ?, ?, ?, ?)", batch)

    def placement_rows():
        for ordinal, (ids1, ids2, _) in enumerate(id_blocks):
            for pos, entity in enumerate(ids1):
                yield (ordinal, entity, 0, pos)
            if ids2 is not None:
                for pos, entity in enumerate(ids2):
                    yield (ordinal, entity, 1, pos)

    total_placements = 0
    for batch in batched(placement_rows()):
        session.executemany("INSERT INTO placements VALUES (?, ?, ?, ?)", batch)
        total_placements += len(batch)

    return {
        "entities": len(uris),
        "blocks": len(id_blocks),
        "placements": total_placements,
        # pack multipliers: pk = min_id * packmul + max_id and
        # cell = pos1 * wmul + pos2 stay collision-free and
        # order-isomorphic to (min_id, max_id) / (pos1, pos2)
        "packmul": max(len(uris), 1),
        "wmul": max_side + 1,
    }
