"""Execute the doctest examples embedded in module docstrings."""

from __future__ import annotations

import doctest
import importlib

import pytest

# Resolved via importlib: package __init__ re-exports can shadow submodule
# attributes (repro.blocking.qgrams names both a module and a function).
MODULE_NAMES = [
    "repro.utils.heap",
    "repro.utils.disjoint_set",
    "repro.utils.text",
    "repro.model.interner",
    "repro.model.namespaces",
    "repro.blocking.qgrams",
    "repro.matching.clustering",
]
MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"


def test_at_least_some_examples_exist():
    total = sum(
        doctest.testmod(module, verbose=False).attempted for module in MODULES
    )
    assert total >= 8
