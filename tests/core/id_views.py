"""URI views of the progressive core's id state, for tests.

The scheduler, its heap and the match graph speak context ids only; a
test reads their state back as URIs here, at its edge.  This module is
the one place tests decode a packed pair key (:func:`unpack`) or the
heap's private live map (:func:`live`).
"""

from __future__ import annotations

from repro.model.interner import PAIR_MASK, PAIR_SHIFT


def unpack(key: int) -> tuple[int, int]:
    """The ``(low, high)`` ids of a packed pair key."""
    return key >> PAIR_SHIFT, key & PAIR_MASK


def pair_of(uris, key: int) -> tuple[str, str]:
    """The URI-sorted pair of a packed key."""
    a, b = (uris[i] for i in unpack(key))
    return (a, b) if a < b else (b, a)


def live(heap) -> dict:
    """Queued item → priority of an ``AddressableMaxHeap``, decoded from
    its ``(-priority, seq, item)`` live entries."""
    return {item: -entry[0] for item, entry in heap._live.items()}


def priorities(scheduler) -> dict[int, float]:
    """Queued packed key → priority."""
    return live(scheduler._heap)


def queued(scheduler) -> dict[tuple[str, str], float]:
    """The queue as URI-sorted pair → priority."""
    uris = scheduler.context.uris
    return {pair_of(uris, key): priority for key, priority in priorities(scheduler).items()}


def decisions(graph) -> list[tuple[str, str, float, bool]]:
    """Every live decision as ``(left, right, score, is_match)``, in
    execution order and its recorded orientation."""
    uris = graph.uris
    return [
        (uris[graph.a[row]], uris[graph.b[row]], graph.score[row], graph.is_match[row])
        for row in graph.rows.values()
    ]


def partners(graph, uri: str) -> set[str]:
    """The URIs matched directly to *uri*."""
    return {graph.uris[i] for i in graph.partner_ids.get(graph.interner.get(uri), ())}


def clusters(graph) -> list[list[str]]:
    """The resolved clusters as sorted URI lists, sorted."""
    members: dict[int, list[str]] = {}
    for entity_id, root in zip(graph.partner_ids, graph.roots(graph.partner_ids)):
        members.setdefault(root, []).append(graph.uris[entity_id])
    return sorted(map(sorted, members.values()))


def match_scores(graph) -> dict[tuple[str, str], float]:
    """URI-sorted pair → score of every match."""
    return {tuple(sorted(d[:2])): d[2] for d in decisions(graph) if d[3]}
