"""Shared fixtures: sample corpora and small synthetic workloads."""

from __future__ import annotations

import pytest

from repro.api import PipelineSpec
from repro.datasets import (
    SyntheticConfig,
    PERIPHERY_PROFILE,
    load_movies,
    load_restaurants,
    synthesize_dirty,
    synthesize_pair,
)


@pytest.fixture(scope="session")
def movies():
    """The embedded movies corpus: (kb_a, kb_b, gold)."""
    return load_movies()


@pytest.fixture(scope="session")
def restaurants():
    """The embedded restaurants corpus: (kb_a, kb_b, gold)."""
    return load_restaurants()


@pytest.fixture(scope="session")
def center_dataset():
    """A small center-profile synthetic clean-clean workload."""
    return synthesize_pair(SyntheticConfig(entities=120, overlap=0.7, seed=11))


@pytest.fixture(scope="session")
def periphery_dataset():
    """A small periphery-profile synthetic clean-clean workload."""
    return synthesize_pair(
        SyntheticConfig(entities=120, overlap=0.7, seed=11, profile=PERIPHERY_PROFILE)
    )


@pytest.fixture(scope="session")
def dirty_dataset():
    """A small dirty-ER workload: (collection, gold)."""
    return synthesize_dirty(SyntheticConfig(entities=80, seed=5), max_duplicates=3)


@pytest.fixture(scope="session")
def threshold_spec():
    """Factory: the default :class:`PipelineSpec` with the cosine matcher
    at *threshold* and any other ``matching`` fields overridden."""

    def build(threshold: float = 0.4, **matching) -> PipelineSpec:
        return PipelineSpec().with_matching(
            matcher={"name": "threshold", "params": {"threshold": threshold}},
            **matching,
        )

    return build
