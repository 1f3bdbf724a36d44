"""Shared fixtures and reporting helpers for the experiment harness.

Every ``bench_e*.py`` module regenerates one of the paper's tables or
figures and asserts its qualitative claim (the README's repository map
lists the harness).  Each prints its rows/series and also writes them
under ``benchmarks/output/``, where they are committed: CI reruns the
eleven experiments and fails on any byte of drift or any untracked
output.  Run::

    PYTHONPATH=src pytest benchmarks/ -o python_files='bench_e*.py' --benchmark-disable

(add ``-s`` to watch the tables stream by; the files are written either
way).

The int-id / array backbone behind ``BlockingGraph`` is held equal to
the string-tuple test oracle by
``tests/metablocking/test_int_id_equivalence.py``; its speed shows in the
``batch-*`` workloads of the repository benchmark
(``python3 bench/run.py --workload batch-center --trace 1``).

The streaming counterpart is the ``stream-mixed`` workload of the
repository benchmark (``python3 bench/run.py --workload stream-mixed``).
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import (
    PERIPHERY_PROFILE,
    SyntheticConfig,
    load_movies,
    load_restaurants,
    synthesize_dirty,
    synthesize_pair,
)

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: experiment-scale workloads (larger than the unit-test fixtures)
CENTER_CONFIG = SyntheticConfig(entities=300, overlap=0.7, seed=42)
PERIPHERY_CONFIG = SyntheticConfig(
    entities=300, overlap=0.7, seed=42, profile=PERIPHERY_PROFILE
)


def report(name: str, text: str) -> None:
    """Print an experiment artifact and persist it under benchmarks/output/."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n{text}\n[written to {path}]")


@pytest.fixture(scope="session")
def movies():
    return load_movies()


@pytest.fixture(scope="session")
def restaurants():
    return load_restaurants()


@pytest.fixture(scope="session")
def center():
    return synthesize_pair(CENTER_CONFIG)


@pytest.fixture(scope="session")
def periphery():
    return synthesize_pair(PERIPHERY_CONFIG)


@pytest.fixture(scope="session")
def dirty():
    return synthesize_dirty(SyntheticConfig(entities=200, seed=42), max_duplicates=3)
