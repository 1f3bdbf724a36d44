"""Text normalization helpers used by the tokenizer and similarity functions.

Entity descriptions in the Web of Data mix scripts, punctuation conventions
and casing.  Token blocking (and the token-based similarity functions) must
see a canonical form, otherwise trivially-matching descriptions land in
disjoint blocks.  These helpers implement the normalization pipeline used
throughout the reproduction: Unicode accent folding, lower-casing, and
splitting on every non-alphanumeric boundary.
"""

from __future__ import annotations

import re
import unicodedata


class _TokenPatterns(dict):
    """min_length → the pattern of letter/digit runs at least that long.

    Unicode letters and digits (underscore excluded): Web-of-data values mix
    scripts, and an ASCII-only pattern would make non-Latin descriptions
    invisible to blocking.  A match can only start where a maximal run
    starts, so short runs are skipped without a filtering pass.
    """

    def __missing__(self, min_length: int) -> re.Pattern:
        self[min_length] = re.compile(rf"[^\W_]{{{max(min_length, 1)},}}")
        return self[min_length]


_TOKEN_RE = _TokenPatterns()
_WS_RE = re.compile(r"\s+")


def strip_accents(text: str) -> str:
    """Fold accented characters to their base form (``é`` → ``e``)."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize(text: str) -> str:
    """Lower-case, accent-fold and collapse whitespace."""
    return _WS_RE.sub(" ", strip_accents(text).lower()).strip()


def token_split(text: str, min_length: int = 1) -> list[str]:
    """Split *text* into normalized alphanumeric tokens.

    Args:
        text: raw attribute value or URI fragment.
        min_length: drop tokens shorter than this (blocking typically uses
            ``min_length=2`` or ``3`` to avoid huge stop-token blocks).

    Returns:
        Tokens in order of appearance, possibly with duplicates.
    """
    # NFKD and accent folding are the identity on ASCII (isascii() is an
    # O(n) C check), and whitespace never reaches a token.
    folded = text.lower() if text.isascii() else normalize(text)
    return _TOKEN_RE[min_length].findall(folded)
