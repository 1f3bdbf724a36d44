"""Pairwise matchers and the match graph.

A :class:`Matcher` maps a candidate pair to a :class:`MatchDecision`
(similarity score + boolean verdict); the :class:`MatchGraph` accumulates
verdicts as matching progresses, maintaining the transitive clustering the
benefit models and the update phase read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.blocking.block import comparison_pair
from repro.matching.similarity import SimilarityIndex
from repro.utils.disjoint_set import DisjointSet


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
    """Base class: decide whether two descriptions co-refer."""

    def bind(self, context) -> None:
        """Hook called by resolution engines before execution starts.

        *context* is a :class:`repro.core.engine.ResolutionContext`;
        matchers that exploit the evolving match state (e.g. the
        neighbour-evidence matcher) capture it here.  The default is a
        no-op so plain value matchers need not care.
        """

    def prime(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Hook: pre-score a known candidate set in one batch.

        Engines call this with the full pruned-edge pair list before the
        progressive loop starts; matchers with a vectorized scoring path
        (TF-IDF cosine) cache the batch scores so the per-pair
        :meth:`similarity` calls inside the loop become lookups.  Scores
        must be bit-identical to the scalar path — priming may never
        change a decision.  The default is a no-op.
        """

    @abstractmethod
    def similarity(self, uri_a: str, uri_b: str) -> float:
        """Similarity score in [0, 1] (best effort) for the pair."""

    @abstractmethod
    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        """Full decision for the pair."""

    def decide_many(self, pairs: list[tuple[str, str]]) -> list[MatchDecision]:
        """Decide a batch of pairs (default: per-pair :meth:`decide`).

        Matchers with a vectorized similarity path override the scoring;
        the decisions are identical to calling :meth:`decide` per pair.
        """
        return [self.decide(a, b) for a, b in pairs]


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
        #: batch-scored cache filled by :meth:`prime` (pair → similarity)
        self._primed: dict[tuple[str, str], float] = {}
        #: index epoch the cache was scored against (None = immutable index)
        self._primed_epoch = None
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

    def _batch_scores(self, pairs: list[tuple[str, str]]):
        """Vectorized scores for *pairs*, or None without a batch path."""
        if self.measure_name != "cosine" or not hasattr(self.index, "cosine_many"):
            return None
        if any(a not in self.index or b not in self.index for a, b in pairs):
            return None
        return self.index.cosine_many([a for a, _ in pairs], [b for _, b in pairs])

    def _check_primed_epoch(self) -> None:
        """Drop the cache when a mutable index has drifted since priming.

        Immutable indexes have no ``epoch``; a streaming index bumps it
        on every IDF-shifting insert, and primed scores from an older
        epoch would no longer be bit-identical to fresh scoring — the
        one thing priming must never break.
        """
        epoch = getattr(self.index, "epoch", None)
        if self._primed and epoch != self._primed_epoch:
            self._primed.clear()

    def prime(self, pairs: Iterable[tuple[str, str]]) -> None:
        self._check_primed_epoch()
        pair_list = [p for p in pairs if p not in self._primed]
        if not pair_list:
            return
        scores = self._batch_scores(pair_list)
        if scores is None:
            return
        self._primed_epoch = getattr(self.index, "epoch", None)
        self._primed.update(zip(pair_list, (float(s) for s in scores)))

    def similarity(self, uri_a: str, uri_b: str) -> float:
        if self._primed:
            self._check_primed_epoch()
            primed = self._primed.get(comparison_pair(uri_a, uri_b))
            if primed is not None:
                return primed
        return self._measure(uri_a, uri_b)

    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        score = self.similarity(uri_a, uri_b)
        return MatchDecision(uri_a, uri_b, score, score >= self.threshold)

    def decide_many(self, pairs: list[tuple[str, str]]) -> list[MatchDecision]:
        scores = self._batch_scores(pairs)
        if scores is None:
            return [self.decide(a, b) for a, b in pairs]
        threshold = self.threshold
        return [
            MatchDecision(a, b, score, score >= threshold)
            for (a, b), score in zip(pairs, (float(s) for s in scores))
        ]


class EnsembleMatcher(Matcher):
    """Weighted combination of several matchers' similarity scores.

    Heterogeneous Web-of-data descriptions rarely yield to one measure:
    names favour character similarity, rich profiles favour TF-IDF cosine,
    sparse ones favour set overlap.  The ensemble scores a pair as the
    weighted mean of its members' similarities and applies one threshold.

    Args:
        members: ``(matcher, weight)`` pairs; weights must be positive.
        threshold: decision threshold on the combined score.
    """

    def __init__(
        self,
        members: list[tuple[Matcher, float]],
        threshold: float = 0.5,
    ) -> None:
        if not members:
            raise ValueError("ensemble requires at least one member")
        if any(weight <= 0 for _, weight in members):
            raise ValueError("member weights must be positive")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.members = list(members)
        self.threshold = threshold
        self._total_weight = sum(weight for _, weight in members)

    def bind(self, context) -> None:
        for matcher, _weight in self.members:
            matcher.bind(context)

    def prime(self, pairs: Iterable[tuple[str, str]]) -> None:
        pair_list = list(pairs)
        for matcher, _weight in self.members:
            matcher.prime(pair_list)

    def similarity(self, uri_a: str, uri_b: str) -> float:
        combined = sum(
            matcher.similarity(uri_a, uri_b) * weight
            for matcher, weight in self.members
        )
        return combined / self._total_weight

    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        score = self.similarity(uri_a, uri_b)
        return MatchDecision(uri_a, uri_b, score, score >= self.threshold)


class OracleMatcher(Matcher):
    """Ground-truth matcher used by oracle baselines and tests.

    Args:
        gold: set of canonical matching pairs.
    """

    def __init__(self, gold: set[tuple[str, str]]) -> None:
        self.gold = gold

    def similarity(self, uri_a: str, uri_b: str) -> float:
        return 1.0 if comparison_pair(uri_a, uri_b) in self.gold else 0.0

    def decide(self, uri_a: str, uri_b: str) -> MatchDecision:
        score = self.similarity(uri_a, uri_b)
        return MatchDecision(uri_a, uri_b, score, score >= 1.0)


class MatchGraph:
    """Accumulated match decisions with transitive clustering.

    Tracks every executed comparison (so repeated work can be measured),
    the positive decisions, and a union-find over matched descriptions
    giving the current resolved clusters.
    """

    def __init__(self) -> None:
        self._decisions: dict[tuple[str, str], MatchDecision] = {}
        self._matches: list[MatchDecision] = []
        self._clusters = DisjointSet()
        self._partners: dict[str, set[str]] = {}

    def __len__(self) -> int:
        """Number of comparisons executed."""
        return len(self._decisions)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._decisions

    @property
    def match_count(self) -> int:
        """Number of positive decisions recorded."""
        return len(self._matches)

    def record(self, decision: MatchDecision) -> bool:
        """Store *decision*; returns False if the pair was already decided."""
        pair = decision.pair
        if pair in self._decisions:
            return False
        self._decisions[pair] = decision
        if decision.is_match:
            self._matches.append(decision)
            self._clusters.union(pair[0], pair[1])
            self._partners.setdefault(pair[0], set()).add(pair[1])
            self._partners.setdefault(pair[1], set()).add(pair[0])
        return True

    def decision_for(self, uri_a: str, uri_b: str) -> MatchDecision | None:
        """Previously recorded decision for the pair, if any."""
        return self._decisions.get(comparison_pair(uri_a, uri_b))

    def matches(self) -> Iterator[MatchDecision]:
        """Positive decisions in execution order."""
        return iter(self._matches)

    def matched_pairs(self) -> set[tuple[str, str]]:
        """Canonical pairs decided as matches (directly, not transitively)."""
        return {d.pair for d in self._matches}

    def is_resolved(self, uri: str) -> bool:
        """True if *uri* has been directly matched with some description."""
        return uri in self._partners

    def partners(self, uri: str) -> set[str]:
        """Descriptions directly matched with *uri* (not transitive)."""
        return set(self._partners.get(uri, ()))

    def are_matched(self, uri_a: str, uri_b: str) -> bool:
        """True if the two descriptions are in the same resolved cluster."""
        if uri_a not in self._clusters or uri_b not in self._clusters:
            return False
        return self._clusters.connected(uri_a, uri_b)

    def cluster_roots(self, uris: Iterable[str]) -> list[str]:
        """Cluster representative of each resolved member of *uris*.

        Unresolved members are skipped; two resolved descriptions are in
        the same cluster exactly when their representatives are equal.
        """
        partners = self._partners
        find = self._clusters.find
        return [find(uri) for uri in uris if uri in partners]

    def cluster_of(self, uri: str) -> frozenset[str]:
        """Members of the resolved cluster containing *uri* (singleton if unmatched)."""
        if uri not in self._clusters:
            return frozenset((uri,))
        root = self._clusters.find(uri)
        return frozenset(
            member for member in self._clusters.items()
            if self._clusters.find(member) == root
        )

    def clusters(self) -> list[frozenset[str]]:
        """All non-singleton resolved clusters, deterministic order."""
        return [c for c in self._clusters.to_clusters() if len(c) > 1]

    def transitive_pairs(self) -> set[tuple[str, str]]:
        """All pairs implied by the clustering (transitive closure)."""
        out: set[tuple[str, str]] = set()
        for cluster in self.clusters():
            members = sorted(cluster)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.add((members[i], members[j]))
        return out
