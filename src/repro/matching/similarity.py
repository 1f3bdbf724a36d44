"""Similarity functions and the corpus-aware similarity index.

Schema-agnostic ER compares descriptions as bags of tokens: set-based
measures (Jaccard, dice, overlap) capture "highly similar" descriptions
with many common tokens, while TF-IDF cosine keeps rare, discriminative
tokens informative for "somehow similar" descriptions that share only a
few.  Character-level measures (Levenshtein, Jaro-Winkler) serve the
value-level comparisons used by some baselines and tests.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as _np

from repro.model.collection import EntityCollection
from repro.model.tokenizer import Tokenizer


# -- set-based token measures ---------------------------------------------------


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard coefficient of two token collections (as sets)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 0.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union if union else 0.0


def dice(a: Iterable[str], b: Iterable[str]) -> float:
    """Sørensen–Dice coefficient of two token collections."""
    set_a, set_b = set(a), set(b)
    total = len(set_a) + len(set_b)
    if total == 0:
        return 0.0
    return 2 * len(set_a & set_b) / total


def overlap_coefficient(a: Iterable[str], b: Iterable[str]) -> float:
    """Overlap coefficient: intersection over the smaller set."""
    set_a, set_b = set(a), set(b)
    smaller = min(len(set_a), len(set_b))
    if smaller == 0:
        return 0.0
    return len(set_a & set_b) / smaller


def weighted_jaccard(a: Counter, b: Counter) -> float:
    """Weighted (multiset) Jaccard: Σ min / Σ max over token counts."""
    if not a and not b:
        return 0.0
    keys = set(a) | set(b)
    minimum = sum(min(a.get(k, 0), b.get(k, 0)) for k in keys)
    maximum = sum(max(a.get(k, 0), b.get(k, 0)) for k in keys)
    return minimum / maximum if maximum else 0.0


def cosine_tfidf(a: Counter, b: Counter, idf: dict[str, float] | None = None) -> float:
    """Cosine similarity of TF(-IDF) vectors built from token counts.

    Args:
        idf: token → inverse document frequency; if None, raw term counts
            are used (plain cosine).
    """
    if not a or not b:
        return 0.0

    def vector(counts: Counter) -> dict[str, float]:
        if idf is None:
            return {t: float(c) for t, c in counts.items()}
        return {t: c * idf.get(t, 0.0) for t, c in counts.items()}

    va, vb = vector(a), vector(b)
    dot = sum(w * vb.get(t, 0.0) for t, w in va.items())
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in va.values()))
    norm_b = math.sqrt(sum(w * w for w in vb.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


# -- character-based measures ------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (iterative two-row DP)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Normalized edit similarity: ``1 − distance / max(len)``."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity of two strings."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        start = max(0, i - window)
        end = min(i + window + 1, len_b)
        for j in range(start, end):
            if not matched_b[j] and b[j] == ch:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len_a):
        if matched_a[i]:
            while not matched_b[k]:
                k += 1
            if a[i] != b[k]:
                transpositions += 1
            k += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro–Winkler similarity (common-prefix boost up to 4 characters)."""
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be in [0, 0.25]")
    base = jaro(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a[:4], b[:4]):
        if ch_a != ch_b:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


# -- corpus-aware index ----------------------------------------------------------------


class SimilarityIndex:
    """Caches token profiles and IDF weights over entity collections.

    Matching runs millions of pairwise similarity calls over the same
    descriptions; tokenizing on every call would dominate the cost.  The
    index tokenizes each description once, precomputes IDF over the indexed
    corpus and exposes pairwise measures by URI.

    Args:
        collections: the collections whose descriptions will be compared.
        tokenizer: shared tokenizer (defaults to the blocking tokenizer so
            "similarity" and "common blocking token" agree).
    """

    def __init__(
        self,
        collections: Iterable[EntityCollection],
        tokenizer: Tokenizer | None = None,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer(include_uri_infix=True)
        self._counts: dict[str, Counter] = {}
        self._sets: dict[str, frozenset[str]] = {}
        document_frequency: Counter = Counter()
        for collection in collections:
            for description in collection:
                counts = self.tokenizer.token_counts(description)
                self._counts[description.uri] = counts
                tokens = frozenset(counts)
                self._sets[description.uri] = tokens
                document_frequency.update(tokens)
        corpus_size = max(len(self._counts), 1)
        # Smoothed IDF (log((1+N)/(1+df)) + 1): a token present in every
        # description keeps a small positive weight instead of zeroing the
        # whole vector — essential on small or homogeneous corpora.
        self._idf = {
            token: math.log((1 + corpus_size) / (1 + df)) + 1.0
            for token, df in document_frequency.items()
        }
        # TF-IDF vectors and their norms, computed once per description:
        # cosine() then only needs the sparse dot product, instead of
        # rebuilding both vectors and both norms on every pairwise call.
        self._vectors: dict[str, dict[str, float]] = {}
        self._norms: dict[str, float] = {}
        idf = self._idf
        for uri, counts in self._counts.items():
            vector = {token: count * idf[token] for token, count in counts.items()}
            self._vectors[uri] = vector
            self._norms[uri] = math.sqrt(sum(w * w for w in vector.values()))
        # Int-token arrays for the vectorized batch path, built lazily on
        # the first cosine_many() call (None until then).
        self._token_ids: dict[str, int] | None = None
        self._id_vectors: dict[str, tuple] | None = None

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
        """IDF of *token* over the indexed corpus (0.0 if unseen)."""
        return self._idf.get(token, 0.0)

    def jaccard(self, uri_a: str, uri_b: str) -> float:
        """Jaccard similarity of two indexed descriptions."""
        return jaccard(self._sets[uri_a], self._sets[uri_b])

    def weighted_jaccard(self, uri_a: str, uri_b: str) -> float:
        """Multiset Jaccard of two indexed descriptions."""
        return weighted_jaccard(self._counts[uri_a], self._counts[uri_b])

    def cosine(self, uri_a: str, uri_b: str) -> float:
        """TF-IDF cosine of two indexed descriptions.

        Uses the vectors and norms precomputed at construction; the
        result is identical to ``cosine_tfidf`` over the raw counts.
        """
        vector_a, vector_b = self._vectors[uri_a], self._vectors[uri_b]
        if not vector_a or not vector_b:
            return 0.0
        get_b = vector_b.get
        dot = sum(w * get_b(t, 0.0) for t, w in vector_a.items())
        if dot == 0.0:
            return 0.0
        norm_a, norm_b = self._norms[uri_a], self._norms[uri_b]
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    def common_tokens(self, uri_a: str, uri_b: str) -> frozenset[str]:
        """Tokens the two descriptions share."""
        return self._sets[uri_a] & self._sets[uri_b]

    # -- batch scoring -------------------------------------------------------

    def _ensure_id_vectors(self):
        """Token-interned (ids, weights) arrays per URI, in vector order.

        The arrays preserve each vector's insertion order — cosine_many
        accumulates dot products in exactly the order :meth:`cosine`
        iterates them, which is what keeps the two bit-identical.
        """
        if self._id_vectors is None:
            token_ids: dict[str, int] = {}
            id_vectors: dict[str, tuple] = {}
            for uri, vector in self._vectors.items():
                ids = [
                    token_ids.setdefault(token, len(token_ids)) for token in vector
                ]
                id_vectors[uri] = (
                    _np.array(ids, dtype=_np.int64),
                    _np.fromiter(
                        vector.values(), dtype=_np.float64, count=len(vector)
                    ),
                )
            self._token_ids = token_ids
            self._id_vectors = id_vectors
        return self._id_vectors

    def cosine_many(self, left: Sequence[str], right: Sequence[str]):
        """TF-IDF cosine of ``zip(left, right)`` pairs in one vectorized pass.

        The hot loop of matching scores every pruned edge; calling
        :meth:`cosine` per pair re-walks two Python dicts each time.
        This method joins all pairs' sparse vectors at once: token ids of
        both sides are matched with one sort + searchsorted, the matched
        products are accumulated per pair with ``bincount`` in each left
        vector's insertion order, so every score is **bit-identical** to
        the scalar :meth:`cosine` result.  Returns a ``float64`` array.

        Raises:
            ValueError: when the two sequences differ in length.
            KeyError: for unindexed URIs.
        """
        if len(left) != len(right):
            raise ValueError("left and right must have equal length")
        count = len(left)
        if count == 0:
            return _np.empty(0, dtype=_np.float64)
        vectors = self._ensure_id_vectors()
        norms = _np.fromiter(
            (self._norms[a] * self._norms[b] for a, b in zip(left, right)),
            _np.float64,
            count,
        )
        assert self._token_ids is not None
        return cosine_many_vectors(
            [vectors[uri] for uri in left],
            [vectors[uri] for uri in right],
            norms,
            len(self._token_ids),
        )


def cosine_many_vectors(left_vecs: list, right_vecs: list, norms, vocab_size: int):
    """Vectorized pairwise sparse cosine over (token-ids, weights) arrays.

    Args:
        left_vecs / right_vecs: per-pair ``(int64 ids, float64 weights)``
            tuples, ids in vector insertion order and distinct within
            each vector.
        norms: per-pair product of the two endpoint norms (float64).
        vocab_size: exclusive upper bound on token ids.

    Tokens being distinct within a vector, each (pair, token) key occurs
    at most once per side; one sorted-side searchsorted join finds every
    match, and ``bincount`` accumulates the matched products in the left
    vector's insertion order — mirroring the scalar dot's running sum
    (whose unmatched terms add exact zeros), which keeps the result
    bit-identical to per-pair scoring.
    """
    np = _np
    count = len(left_vecs)
    sizes_l = np.fromiter((len(v[0]) for v in left_vecs), np.int64, count)
    sizes_r = np.fromiter((len(v[0]) for v in right_vecs), np.int64, count)
    pair_l = np.repeat(np.arange(count), sizes_l)
    tok_l = (
        np.concatenate([v[0] for v in left_vecs])
        if len(pair_l)
        else np.empty(0, dtype=np.int64)
    )
    w_l = (
        np.concatenate([v[1] for v in left_vecs])
        if len(pair_l)
        else np.empty(0, dtype=np.float64)
    )
    pair_r = np.repeat(np.arange(count), sizes_r)
    tok_r = (
        np.concatenate([v[0] for v in right_vecs])
        if len(pair_r)
        else np.empty(0, dtype=np.int64)
    )
    w_r = (
        np.concatenate([v[1] for v in right_vecs])
        if len(pair_r)
        else np.empty(0, dtype=np.float64)
    )
    vocab = max(vocab_size, 1)
    key_l = pair_l * vocab + tok_l
    key_r = pair_r * vocab + tok_r
    order_r = np.argsort(key_r, kind="stable")
    sorted_r = key_r[order_r]
    slot = np.searchsorted(sorted_r, key_l)
    slot_clipped = np.minimum(slot, max(len(sorted_r) - 1, 0))
    matched = (
        (sorted_r[slot_clipped] == key_l)
        if len(sorted_r)
        else np.zeros(len(key_l), dtype=bool)
    )
    products = w_l[matched] * w_r[order_r[slot_clipped[matched]]]
    dots = np.bincount(pair_l[matched], weights=products, minlength=count)
    scores = np.zeros(count, dtype=np.float64)
    np.divide(dots, norms, out=scores, where=(dots != 0.0) & (norms != 0.0))
    return scores
