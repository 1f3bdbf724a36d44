"""Incrementally-maintained similarity state for query-time matching.

The batch :class:`~repro.matching.similarity.SimilarityIndex` tokenizes
the whole corpus and freezes IDF at construction — useless under a
stream, where every insert shifts document frequencies.  This index
maintains the cheap global state incrementally (token counts per
description, document frequencies, corpus size) and derives TF-IDF
vectors **lazily for the handful of descriptions a query touches**,
always against the *current* IDF.

It is measure-compatible with the batch index (``cosine``, ``jaccard``,
``weighted_jaccard``, ``__contains__``), so the existing
:class:`~repro.matching.matcher.ThresholdMatcher` works on it
unchanged.  There is deliberately no batch path: a query scores a
handful of pairs with the scalar :meth:`~StreamingSimilarityIndex.cosine`
— a dict dot product over two cached vectors — which costs less than one
array round trip.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.matching.similarity import jaccard, weighted_jaccard
from repro.model.description import EntityDescription
from repro.model.tokenizer import Tokenizer
from repro.stream.store import StreamingEntityStore


class StreamingSimilarityIndex:
    """Token/IDF state maintained under inserts.

    Args:
        store: the streaming store to follow; the index subscribes
            itself and reflects every insert (including merges, which
            re-tokenize the merged description).
        tokenizer: shared tokenizer (defaults to the blocking tokenizer
            so "similarity" and "common blocking token" agree).
    """

    def __init__(
        self,
        store: StreamingEntityStore,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer(include_uri_infix=True)
        self._counts: dict[str, Counter] = {}
        self._sets: dict[str, frozenset[str]] = {}
        self._document_frequency: Counter = Counter()
        #: bumped on every change that shifts IDF; versions cached vectors
        self._epoch = 0
        #: uri → (epoch, vector dict, norm); valid only at the same epoch
        self._vector_cache: dict[str, tuple[int, dict[str, float], float]] = {}
        store.subscribe(self._on_insert, replay=True)
        store.subscribe_delete(self._on_delete)

    def _on_insert(
        self,
        description: EntityDescription,
        source: int,
        entity_id: int,
        was_present: bool,
    ) -> None:
        uri = description.uri
        counts = self.tokenizer.token_counts(description)
        tokens = frozenset(counts)
        previous = self._sets.get(uri)
        if previous is not None:
            if counts == self._counts[uri]:
                return  # pure duplicate: nothing shifted
            for token in previous - tokens:
                self._document_frequency[token] -= 1
        new_tokens = tokens if previous is None else tokens - previous
        self._document_frequency.update(new_tokens)
        self._counts[uri] = counts
        self._sets[uri] = tokens
        self._epoch += 1

    def _on_delete(self, uri: str, source: int, entity_id: int) -> None:
        """Retract the description's tokens and document frequencies.

        The store notifies once per source the URI left; the similarity
        state is per-URI, so only the first notification does work.
        Every deletion shifts IDF, so the epoch bump invalidates all
        cached vectors — stale TF-IDF weights cannot survive a
        retraction.
        """
        tokens = self._sets.pop(uri, None)
        if tokens is None:
            return
        del self._counts[uri]
        self._vector_cache.pop(uri, None)
        df = self._document_frequency
        for token in tokens:
            df[token] -= 1
            if not df[token]:
                del df[token]
        self._epoch += 1

    # -- lookups -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone corpus-state version; bumped when IDF shifts.

        Consumers caching derived scores (e.g. a primed matcher) compare
        epochs to detect staleness.
        """
        return self._epoch

    def __contains__(self, uri: str) -> bool:
        return uri in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def tokens_of(self, uri: str) -> frozenset[str]:
        """Distinct tokens of the description with *uri*.

        Raises:
            KeyError: for unindexed URIs.
        """
        return self._sets[uri]

    def idf(self, token: str) -> float:
        """Smoothed IDF of *token* under the current corpus.

        Same formula as the batch index — ``log((1+N)/(1+df)) + 1`` —
        evaluated against the live document frequencies.
        """
        corpus_size = max(len(self._counts), 1)
        df = self._document_frequency.get(token, 0)
        return math.log((1 + corpus_size) / (1 + df)) + 1.0

    def _vector(self, uri: str) -> tuple[dict[str, float], float]:
        """Current-epoch TF-IDF vector and norm of *uri* (cached)."""
        cached = self._vector_cache.get(uri)
        if cached is not None and cached[0] == self._epoch:
            return cached[1], cached[2]
        corpus_size = max(len(self._counts), 1)
        df = self._document_frequency
        log = math.log
        vector = {
            token: count * (log((1 + corpus_size) / (1 + df[token])) + 1.0)
            for token, count in self._counts[uri].items()
        }
        norm = math.sqrt(sum(w * w for w in vector.values()))
        self._vector_cache[uri] = (self._epoch, vector, norm)
        return vector, norm

    # -- measures ------------------------------------------------------------

    def jaccard(self, uri_a: str, uri_b: str) -> float:
        """Jaccard similarity of two indexed descriptions."""
        return jaccard(self._sets[uri_a], self._sets[uri_b])

    def weighted_jaccard(self, uri_a: str, uri_b: str) -> float:
        """Multiset Jaccard of two indexed descriptions."""
        return weighted_jaccard(self._counts[uri_a], self._counts[uri_b])

    def cosine(self, uri_a: str, uri_b: str) -> float:
        """TF-IDF cosine under the current corpus statistics."""
        vector_a, norm_a = self._vector(uri_a)
        vector_b, norm_b = self._vector(uri_b)
        if not vector_a or not vector_b:
            return 0.0
        get_b = vector_b.get
        dot = sum(w * get_b(t, 0.0) for t, w in vector_a.items())
        if dot == 0.0:
            return 0.0
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)
