"""Pairwise matchers and the match graph.

A :class:`Matcher` decides whether a candidate pair co-refers: the
progressive loops ask :meth:`Matcher.decide_ids` for ``(score,
is_match)`` on ids of their resolution context, and the URI-level
:meth:`Matcher.decide` returns a :class:`MatchDecision`.  The
:class:`MatchGraph` accumulates verdicts by id as matching progresses,
maintaining the transitive clustering the benefit models and the update
phase read; URIs and :class:`MatchDecision` objects are derived from its
columns only for the report.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as _np

from repro.blocking.block import comparison_pair
from repro.matching.similarity import SimilarityIndex
from repro.metablocking.graph import pack_pair_arrays
from repro.model.interner import PAIR_SHIFT, EntityInterner, pack_pair


@dataclass(frozen=True)
class MatchDecision:
    """Outcome of comparing one pair."""

    left: str
    right: str
    similarity: float
    is_match: bool

    @property
    def pair(self) -> tuple[str, str]:
        """Canonical pair identity."""
        return comparison_pair(self.left, self.right)


class Matcher(ABC):
    """Base class: decide whether two descriptions co-refer.

    The progressive loops call :meth:`decide_ids` with ids of the bound
    context; a matcher that only knows URIs is served by the base-class
    adapter, which calls :meth:`decide` on the ids' URIs.
    """

    #: the bound resolution context (None until :meth:`attach`)
    _context = None

    def attach(self, context) -> None:
        """Bind the matcher to *context*: what resolution engines call.

        The context is kept for the id adapters before the :meth:`bind`
        hook runs, so a subclass may override :meth:`bind` without
        calling ``super``.  Not meant to be overridden.
        """
        self._context = context
        self.bind(context)

    def bind(self, context) -> None:
        """Hook called by :meth:`attach` before execution starts.

        *context* is a :class:`repro.core.engine.ResolutionContext`;
        matchers that exploit the evolving match state (e.g. the
        neighbour-evidence matcher) read it.  The default keeps it, so a
        direct ``bind`` call binds too.
        """
        self._context = context

    def prime(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        """Hook: pre-score a known candidate set in one batch.

        Engines call this with the full pruned-edge list as two columns of
        ids of the bound context, in the orientation each pair will be
        decided in, before the progressive loop starts; matchers with a
        vectorized scoring path (TF-IDF cosine) cache the batch scores so
        the per-pair calls inside the loop become lookups.  Scores must be
        bit-identical to the scalar path — priming may never change a
        decision.  The default is a no-op.
        """

    def primed_scores(self) -> dict[int, float]:
        """The scores :meth:`prime` cached, packed pair of context ids →
        score, live across later :meth:`prime` calls: a wrapping matcher
        reads them without a call per pair.  The default caches none."""
        return {}

    @abstractmethod
    def similarity(self, uri_a: str, uri_b: str) -> float:
        """Similarity score in [0, 1] (best effort) for the pair."""

    def verdict(self, uri_a: str, uri_b: str) -> tuple[float, bool]:
        """``(score, is_match)`` of the pair; the default thresholds
        :meth:`similarity` at the matcher's ``threshold``."""
        score = self.similarity(uri_a, uri_b)
        return score, score >= self.threshold

    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        """Full decision for the pair: its :meth:`verdict`."""
        return MatchDecision(uri_a, uri_b, *self.verdict(uri_a, uri_b))

    def decide_many(self, pairs: list[tuple[str, str]]) -> list[MatchDecision]:
        """Decide a batch of pairs: per-pair :meth:`decide`."""
        return [self.decide(a, b) for a, b in pairs]

    def decide_ids(self, a: int, b: int) -> tuple[float, bool]:
        """``(score, is_match)`` of two ids of the bound context, in the
        given orientation (the loops pass URI-sorted ids); the default
        serves a URI-level matcher through :meth:`decide`."""
        uris = self._context.uris
        decision = self.decide(uris[a], uris[b])
        return decision.similarity, decision.is_match


class ThresholdMatcher(Matcher):
    """Similarity-threshold matcher over a :class:`SimilarityIndex`.

    Args:
        index: pre-built similarity index covering all candidate URIs.
        threshold: minimum similarity for a match verdict.
        measure: which index measure to use — ``"jaccard"``,
            ``"weighted-jaccard"`` or ``"cosine"`` — or any callable
            ``(uri_a, uri_b) -> float``.
    """

    MEASURES = ("jaccard", "weighted-jaccard", "cosine")

    def __init__(
        self,
        index: SimilarityIndex,
        threshold: float = 0.5,
        measure: str | Callable[[str, str], float] = "cosine",
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.index = index
        self.threshold = threshold
        #: batch-scored cache filled by :meth:`prime`: packed pair of ids
        #: of the bound context → similarity
        self._primed: dict[int, float] = {}
        if callable(measure):
            self._measure = measure
            self.measure_name = getattr(measure, "__name__", "custom")
        elif measure == "jaccard":
            self._measure = index.jaccard
            self.measure_name = measure
        elif measure == "weighted-jaccard":
            self._measure = index.weighted_jaccard
            self.measure_name = measure
        elif measure == "cosine":
            self._measure = index.cosine
            self.measure_name = measure
        else:
            raise ValueError(
                f"unknown measure {measure!r}; choose from {self.MEASURES}"
            )

    def bind(self, context) -> None:
        super().bind(context)
        self._primed.clear()  # keyed by the previous context's ids

    def prime(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        # One vectorized pass, in the orientation given (the cosine's dot
        # runs over the left row).  The context ids are the index's rows
        # when both were built over the same collections; otherwise, or
        # for an id past the index, the loop scores every pair itself.
        index, context = self.index, self._context
        batch_path = self.measure_name == "cosine" and hasattr(index, "cosine_rows")
        if not (len(ids_a) and batch_path and context is not None):
            return
        rows = len(index)
        ids_a, ids_b = (_np.asarray(ids, dtype=_np.int64) for ids in (ids_a, ids_b))
        if max(ids_a.max(), ids_b.max()) >= rows or context.uris[:rows] != index.uris():
            return
        scores = index.cosine_rows(ids_a, ids_b)
        keys = pack_pair_arrays(ids_a, ids_b)
        self._primed.update(zip(keys.tolist(), scores.tolist()))

    def primed_scores(self) -> dict[int, float]:
        return self._primed

    def similarity(self, uri_a: str, uri_b: str) -> float:
        return self._measure(uri_a, uri_b)

    def decide_ids(self, a: int, b: int) -> tuple[float, bool]:
        # pack_pair, inlined: this runs once per comparison
        score = self._primed.get(a << PAIR_SHIFT | b if a < b else b << PAIR_SHIFT | a)
        if score is None:
            uris = self._context.uris
            score = self._measure(uris[a], uris[b])
        return score, score >= self.threshold


class OracleMatcher(Matcher):
    """Ground-truth matcher used by oracle baselines and tests.

    Args:
        gold: set of canonical matching pairs.
    """

    threshold = 1.0

    def __init__(self, gold: set[tuple[str, str]]) -> None:
        self.gold = gold

    def similarity(self, uri_a: str, uri_b: str) -> float:
        return 1.0 if comparison_pair(uri_a, uri_b) in self.gold else 0.0


class MatchGraph:
    """Accumulated match decisions with transitive clustering, by id.

    The graph works in the id space of its interner (its resolution
    context's): decisions are parallel columns ``a``, ``b``, ``score`` and
    ``is_match`` in execution order, ``rows`` maps the packed pair of each
    live decision to its row (a forgotten decision leaves ``rows`` at
    once and the columns at the next compaction), ``partner_ids`` holds
    the direct partners of every matched id, and the clusters are
    kept flat: a root list gives every matched id its cluster's
    representative in one read, and a union relabels the smaller cluster.
    URIs and :class:`MatchDecision` objects exist only at the boundary:
    :meth:`record` interns a decision on the way in, and the report
    accessors derive them on the way out.
    """

    def __init__(self, interner: EntityInterner | None = None) -> None:
        self.interner = interner if interner is not None else EntityInterner()
        self.uris = self.interner.uri_table()
        self.a: list[int] = []
        self.b: list[int] = []
        self.score: list[float] = []
        self.is_match: list[bool] = []
        self.rows: dict[int, int] = {}
        self.partner_ids: dict[int, set[int]] = {}
        #: number of positive decisions recorded
        self.match_count = 0
        #: id → its cluster's representative (an id is its own until matched)
        self._root: list[int] = []
        #: representative → the members of its cluster, for clusters of two or more
        self._members: dict[int, list[int]] = {}
        #: id → packed pairs of its live decisions, built by the first
        #: :meth:`forget` (a batch run never forgets) and kept from then on
        self._keys_of: defaultdict[int, set[int]] | None = None

    def __len__(self) -> int:
        """Number of comparisons executed."""
        return len(self.rows)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self._row(*pair) is not None

    def _row(self, uri_a: str, uri_b: str) -> int | None:
        get = self.interner.get
        a, b = get(uri_a), get(uri_b)
        return self.rows.get(pack_pair(a, b)) if a >= 0 and b >= 0 else None

    def record_ids(self, a: int, b: int, score: float, is_match: bool) -> bool:
        """Store a decision on ids; False if the pair was already decided."""
        key = a << PAIR_SHIFT | b if a < b else b << PAIR_SHIFT | a  # pack_pair
        rows = self.rows
        if key in rows:
            return False
        rows[key] = len(self.a)
        if self._keys_of is not None:
            self._keys_of[a].add(key)
            self._keys_of[b].add(key)
        self.a.append(a)
        self.b.append(b)
        self.score.append(score)
        self.is_match.append(is_match)
        if is_match:
            self.match_count += 1
            self._union(a, b)
            partners = self.partner_ids
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        return True

    def record(self, decision: MatchDecision) -> bool:
        """Store *decision*; returns False if the pair was already decided.

        Raises:
            ValueError: for a self-comparison.
        """
        if decision.left == decision.right:
            raise ValueError(f"self-comparison: {decision.left!r}")
        intern = self.interner.intern
        return self.record_ids(
            intern(decision.left), intern(decision.right), decision.similarity, decision.is_match
        )

    def forget(self, entity_id: int) -> None:
        """Drop every decision involving *entity_id* (a retracted
        description) and its partners, re-clustering its component."""
        rows, keys_of, a, b = self.rows, self._keys_of, self.a, self.b
        if keys_of is None:
            keys_of = self._keys_of = defaultdict(set)
            for key, row in rows.items():
                keys_of[a[row]].add(key)
                keys_of[b[row]].add(key)
        for key in keys_of.pop(entity_id, ()):
            row = rows.pop(key)
            self.match_count -= self.is_match[row]
            other = b[row] if a[row] == entity_id else a[row]
            keys_of[other].discard(key)
            if not keys_of[other]:
                del keys_of[other]
        if len(a) > 2 * len(rows):  # forgotten rows outnumber live ones
            live = list(rows.values())
            for column in (a, b, self.score, self.is_match):
                column[:] = [column[row] for row in live]
            for row, key in enumerate(rows):  # rows are in execution order
                rows[key] = row
        partners = self.partner_ids
        if entity_id not in partners:
            return
        # Its cluster may split: re-link that cluster only.
        root = self._root
        component = self._members.pop(root[entity_id])
        for other in partners.pop(entity_id):
            partners[other].discard(entity_id)
            if not partners[other]:
                del partners[other]
        for member in component:
            root[member] = member
        for member in component:
            for other in partners.get(member, ()):
                self._union(member, other)

    def _union(self, a: int, b: int) -> None:
        root, members = self._root, self._members
        root.extend(range(len(root), max(a, b) + 1))
        keep, gone = root[a], root[b]
        if keep == gone:
            return
        if len(members.get(keep, ())) < len(members.get(gone, ())):
            keep, gone = gone, keep  # relabel the smaller cluster
        moved = members.pop(gone, [gone])
        members.setdefault(keep, [keep]).extend(moved)
        for member in moved:
            root[member] = keep

    def are_matched_ids(self, a: int, b: int) -> bool:
        """True if the two ids are in the same resolved cluster."""
        partners = self.partner_ids
        return a in partners and b in partners and self._root[a] == self._root[b]

    def roots(self, ids: Iterable[int]) -> list[int]:
        """Cluster representative of each resolved member of *ids*
        (unresolved members are skipped)."""
        return list(map(self._root.__getitem__, filter(self.partner_ids.__contains__, ids)))

    # -- the report: URIs and decisions, derived on demand ---------------------

    def _decision(self, row: int) -> MatchDecision:
        uris = self.uris
        return MatchDecision(
            uris[self.a[row]], uris[self.b[row]], self.score[row], self.is_match[row]
        )

    def decisions(self) -> Iterator[MatchDecision]:
        """Every decision in execution order."""
        return map(self._decision, self.rows.values())

    def decision_for(self, uri_a: str, uri_b: str) -> MatchDecision | None:
        """Previously recorded decision for the pair, if any."""
        row = self._row(uri_a, uri_b)
        return None if row is None else self._decision(row)

    def matches(self) -> Iterator[MatchDecision]:
        """Positive decisions in execution order."""
        return map(self._decision, self._matched_rows())

    def _matched_rows(self) -> list[int]:
        is_match = self.is_match
        return [row for row in self.rows.values() if is_match[row]]

    def matched_pairs(self) -> set[tuple[str, str]]:
        """Canonical pairs decided as matches (directly, not transitively)."""
        uris, a, b = self.uris, self.a, self.b
        pairs = ((uris[a[row]], uris[b[row]]) for row in self._matched_rows())
        return {(x, y) if x < y else (y, x) for x, y in pairs}

    def is_resolved(self, uri: str) -> bool:
        """True if *uri* has been directly matched with some description."""
        return self.interner.get(uri) in self.partner_ids

    def partners(self, uri: str) -> set[str]:
        """Descriptions directly matched with *uri* (not transitive)."""
        return {self.uris[i] for i in self.partner_ids.get(self.interner.get(uri), ())}

    def are_matched(self, uri_a: str, uri_b: str) -> bool:
        """True if the two descriptions are in the same resolved cluster."""
        return self.are_matched_ids(self.interner.get(uri_a), self.interner.get(uri_b))

    def cluster_of(self, uri: str) -> frozenset[str]:
        """Members of the resolved cluster containing *uri* (singleton if unmatched)."""
        return next((c for c in self.clusters() if uri in c), frozenset((uri,)))

    def clusters(self) -> list[frozenset[str]]:
        """All non-singleton resolved clusters, largest first, deterministic order."""
        groups: dict[int, set[str]] = {}
        for entity_id in self.partner_ids:
            groups.setdefault(self._root[entity_id], set()).add(self.uris[entity_id])
        clusters = map(frozenset, groups.values())
        return sorted(clusters, key=lambda c: (-len(c), sorted(map(repr, c))))

    def transitive_pairs(self) -> set[tuple[str, str]]:
        """All pairs implied by the clustering (transitive closure)."""
        out: set[tuple[str, str]] = set()
        for cluster in self.clusters():
            members = sorted(cluster)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.add((members[i], members[j]))
        return out
