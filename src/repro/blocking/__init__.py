"""Blocking: placing similar descriptions into blocks.

Blocking is MinoanER's pre-processing step: instead of comparing every pair
of descriptions, only pairs co-occurring in at least one block are
candidates for matching.  All methods here are **schema-agnostic**, per the
paper: they assume only that matching descriptions share a common token in
their values or URIs.

* :mod:`repro.blocking.token_blocking` — one block per distinct token;
* :mod:`repro.blocking.prefix_infix_suffix` — URI-aware keys (tokens of the
  URI infix), for sparsely-described periphery entities;
* :mod:`repro.blocking.attribute_clustering` — clusters attributes by value
  similarity and scopes token keys by cluster, trading recall for precision;
* :mod:`repro.blocking.purging` / :mod:`repro.blocking.filtering` — block
  post-processing that discards oversized blocks / each entity's least
  selective blocks.
"""

from repro.blocking.block import Block, BlockCollection, comparison_pair
from repro.blocking.base import Blocker
from repro.blocking.token_blocking import TokenBlocking
from repro.blocking.prefix_infix_suffix import PrefixInfixSuffixBlocking
from repro.blocking.attribute_clustering import AttributeClusteringBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.filtering import BlockFiltering
from repro.blocking.qgrams import QGramsBlocking, qgrams

__all__ = [
    "Block",
    "BlockCollection",
    "comparison_pair",
    "Blocker",
    "TokenBlocking",
    "PrefixInfixSuffixBlocking",
    "AttributeClusteringBlocking",
    "BlockPurging",
    "BlockFiltering",
    "QGramsBlocking",
    "qgrams",
]
