"""Per-``Block`` token blocking, purging and filtering: the reference.

The library builds, purges and filters blocks as array passes over one
columnar block table.  These are the per-block loops over URI lists it
replaced, kept verbatim in spirit: grouping by ``keys_for``, one
``Block`` per key, an entity → keys dict, a set of retained keys per
entity.  ``test_columnar_reference.py`` holds the columnar path ``==``
to them.  Everything here works on plain lists of :class:`Block`.
"""

from __future__ import annotations

from repro.blocking.block import Block
from repro.blocking.filtering import retained_keys
from repro.blocking.purging import threshold_from_histogram


def reference_build(blocker, collection1, collection2=None, drop_singletons=True):
    """Blocks with sorted keys and members in collection order."""

    def groups(collection):
        out: dict[str, list[str]] = {}
        for description in collection:
            for key in blocker.keys_for(description):
                out.setdefault(key, []).append(description.uri)
        return out

    groups1 = groups(collection1)
    if collection2 is None:
        keys = [k for k, m in groups1.items() if len(m) > 1 or not drop_singletons]
        return [Block(key, groups1[key]) for key in sorted(keys)]
    groups2 = groups(collection2)
    keys = groups1.keys() & groups2.keys()
    if not drop_singletons:
        keys = groups1.keys() | groups2.keys()
    return [
        Block(key, groups1.get(key, []), groups2.get(key, [])) for key in sorted(keys)
    ]


def reference_entity_index(blocks) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for block in blocks:
        for uri in block.entities():
            index.setdefault(uri, []).append(block.key)
    return index


def reference_id_views(blocks):
    """``(URIs in first-placement order, (ids1, ids2, cardinality) per block)``."""
    ids: dict[str, int] = {}

    def intern(uris):
        return [ids.setdefault(uri, len(ids)) for uri in uris]

    id_blocks = []
    for block in blocks:
        ids1 = intern(block.entities1)
        ids2 = intern(block.entities2) if block.entities2 is not None else None
        id_blocks.append((ids1, ids2, block.cardinality()))
    return list(ids), id_blocks


def reference_purge(blocks, max_cardinality=None, smoothing=1.1):
    histogram: dict[int, tuple[int, int]] = {}
    for block in blocks:
        cardinality = block.cardinality()
        comparisons, assignments = histogram.get(cardinality, (0, 0))
        histogram[cardinality] = (comparisons + cardinality, assignments + len(block))
    threshold = (
        max_cardinality
        if max_cardinality is not None
        else threshold_from_histogram(histogram, smoothing)
    )
    return [block for block in blocks if block.cardinality() <= threshold]


def reference_filter(blocks, ratio=0.8):
    cardinality = {block.key: block.cardinality() for block in blocks}
    keep = {
        uri: set(retained_keys(keys, cardinality.__getitem__, ratio))
        for uri, keys in reference_entity_index(blocks).items()
    }
    filtered = []
    for block in blocks:
        entities1 = [u for u in block.entities1 if block.key in keep[u]]
        if block.is_bipartite:
            entities2 = [u for u in block.entities2 if block.key in keep[u]]
            if entities1 and entities2:
                filtered.append(Block(block.key, entities1, entities2))
        elif len(entities1) >= 2:
            filtered.append(Block(block.key, entities1))
    return filtered
