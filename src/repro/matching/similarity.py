"""Similarity functions and the corpus-aware similarity index.

Schema-agnostic ER compares descriptions as bags of tokens: Jaccard
captures "highly similar" descriptions with many common tokens, while
TF-IDF cosine keeps rare, discriminative tokens informative for "somehow
similar" descriptions that share only a few.

:class:`SimilarityIndex` reads the collections' token columns (the copy
token blocking built) and holds the corpus as CSR rows: token ids in
first-occurrence order with counts, TF-IDF weights and one norm per row.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Mapping

import numpy as _np

from repro.model.collection import EntityCollection
from repro.model.interner import dense_ids
from repro.model.tokenizer import Tokenizer, row_positions


# -- set-based token measures ---------------------------------------------------


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard coefficient of two token collections (as sets)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 0.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union if union else 0.0


def weighted_jaccard(a: Mapping, b: Mapping) -> float:
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


# -- corpus-aware index ----------------------------------------------------------------


class SimilarityIndex:
    """TF-IDF over the token columns of collections, one CSR row per URI.

    ``uri → row`` is the only per-URI structure; every measure derives from
    the rows.  A URI is one document: the first collection describing it
    wins (as in :class:`~repro.core.engine.ResolutionContext`) and it
    counts once in document frequency.

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
        self._rows: dict[str, int] = {}
        self._vocabulary: dict[str, int] = dense_ids()
        empty = _np.empty(0, dtype=_np.int64)
        ids, counts, sizes = [empty], [empty], [empty]
        for collection in collections:
            column = self.tokenizer.column(collection)
            remap = _np.fromiter(
                map(self._vocabulary.__getitem__, column.vocabulary), _np.int64
            )
            # A URI an earlier collection described is shadowed here.
            keep = [row for row, uri in enumerate(column.uris) if uri not in self._rows]
            uris = map(column.uris.__getitem__, keep)
            self._rows.update(zip(uris, itertools.count(len(self._rows))))
            positions, kept_sizes = row_positions(column.indptr, _np.array(keep, int))
            ids.append(remap[column.ids[positions]])
            counts.append(column.counts[positions])
            sizes.append(kept_sizes)
        self._vocabulary.default_factory = None
        self._tokens: list[str] = list(self._vocabulary)
        self._ids = _np.concatenate(ids)
        self._counts = _np.concatenate(counts)
        self._indptr = _np.zeros(len(self._rows) + 1, dtype=_np.int64)
        _np.cumsum(_np.concatenate(sizes), out=self._indptr[1:])
        self._bounds: list[int] = self._indptr.tolist()
        # Smoothed IDF (log((1+N)/(1+df)) + 1) keeps a token present in every
        # description weighted — essential on small or homogeneous corpora.
        # math.log runs once per distinct df (numpy's log may round apart);
        # a token only a shadowed description held has df 0: unseen.
        size = max(len(self._rows), 1)
        df = _np.bincount(self._ids, minlength=len(self._tokens))
        levels, level_of = _np.unique(df, return_inverse=True)
        idf = [math.log((1 + size) / (1 + n)) + 1.0 for n in levels.tolist()]
        self._idf = _np.where(df > 0, _np.array(idf)[level_of], 0.0)
        self._weights = self._counts * self._idf[self._ids]
        # Each norm is Python's left-to-right sum of squares, as the
        # scalar formula takes it (numpy's reductions sum pairwise).
        squares = (self._weights * self._weights).tolist()
        spans = map(slice, self._bounds, self._bounds[1:])
        self._norms = _np.array([math.sqrt(sum(squares[span])) for span in spans])

    def __contains__(self, uri: str) -> bool:
        return uri in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def uris(self) -> list[str]:
        """Indexed URIs, in row order."""
        return list(self._rows)

    def _row(self, uri: str, values: _np.ndarray) -> list:
        row = self._rows[uri]
        return values[self._bounds[row] : self._bounds[row + 1]].tolist()

    def tokens_of(self, uri: str) -> frozenset[str]:
        """Distinct tokens of the description with *uri*.

        Raises:
            KeyError: for unindexed URIs.
        """
        return frozenset(map(self._tokens.__getitem__, self._row(uri, self._ids)))

    def idf(self, token: str) -> float:
        """IDF of *token* over the indexed corpus (0.0 if unseen)."""
        token_id = self._vocabulary.get(token)
        return 0.0 if token_id is None else float(self._idf[token_id])

    def jaccard(self, uri_a: str, uri_b: str) -> float:
        """Jaccard similarity of two indexed descriptions."""
        return jaccard(self._row(uri_a, self._ids), self._row(uri_b, self._ids))

    def weighted_jaccard(self, uri_a: str, uri_b: str) -> float:
        """Multiset Jaccard of two indexed descriptions."""
        return weighted_jaccard(
            dict(zip(self._row(uri_a, self._ids), self._row(uri_a, self._counts))),
            dict(zip(self._row(uri_b, self._ids), self._row(uri_b, self._counts))),
        )

    def cosine(self, uri_a: str, uri_b: str) -> float:
        """TF-IDF cosine of two indexed descriptions.

        The dot runs over the left row in first-occurrence order with the
        right row as a lookup, so the result is identical to
        ``cosine_tfidf`` over the raw counts.
        """
        ids_a, ids_b = self._row(uri_a, self._ids), self._row(uri_b, self._ids)
        if not ids_a or not ids_b:
            return 0.0
        get_b = dict(zip(ids_b, self._row(uri_b, self._weights))).get
        weights_a = self._row(uri_a, self._weights)
        dot = sum(w * get_b(t, 0.0) for t, w in zip(ids_a, weights_a))
        if dot == 0.0:
            return 0.0
        norm_a, norm_b = self._norms[[self._rows[uri_a], self._rows[uri_b]]].tolist()
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    def common_tokens(self, uri_a: str, uri_b: str) -> frozenset[str]:
        """Tokens the two descriptions share."""
        return self.tokens_of(uri_a) & self.tokens_of(uri_b)

    # -- batch scoring -------------------------------------------------------

    def cosine_rows(self, left, right):
        """TF-IDF cosine of ``zip(left, right)`` row pairs (int arrays of
        equal length, rows as in :meth:`uris`) in one vectorized pass.

        Both sides' rows are gathered from the CSR arrays and joined on
        (pair, token) keys by one searchsorted; ``bincount`` adds the matched
        products in the left row's order, as the scalar dot does, so every
        score is **bit-identical** to :meth:`cosine`.  Returns ``float64``.

        Raises:
            ValueError: when the two sequences differ in length.
            IndexError: for a row past the index.
        """
        if len(left) != len(right):
            raise ValueError("left and right must have equal length")
        np = _np
        count = len(left)
        width = max(len(self._tokens), 1)
        sides = []
        for rows in (left, right):
            positions, sizes = row_positions(self._indptr, rows)
            pair = np.repeat(np.arange(count), sizes)
            sides.append((rows, pair, pair * width + self._ids[positions], positions))
        (rows_l, pair_l, key_l, at_l), (rows_r, _, key_r, at_r) = sides
        order_r = np.argsort(key_r, kind="stable")
        # A sentinel above every key ends the sorted side, so each slot is
        # valid and only a true (pair, token) match compares equal.
        sorted_r = np.append(key_r[order_r], np.iinfo(np.int64).max)
        slot = np.searchsorted(sorted_r, key_l)
        matched = sorted_r[slot] == key_l
        weights = self._weights
        products = weights[at_l[matched]] * weights[at_r[order_r[slot[matched]]]]
        dots = np.bincount(pair_l[matched], weights=products, minlength=count)
        norms = self._norms[rows_l] * self._norms[rows_r]
        scores = np.zeros(count, dtype=np.float64)
        np.divide(dots, norms, out=scores, where=(dots != 0.0) & (norms != 0.0))
        return scores
