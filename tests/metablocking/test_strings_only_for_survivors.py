"""Late materialisation is the contract: strings only for survivors.

Meta-blocking exists to throw comparisons away cheaply, so nothing on
the pipeline's path may build a Python object per *distinct comparison*:
the pair table is columns, the graph's ``materialize()`` is a view over
them, pruners return row indices and URIs are resolved for the surviving
rows alone.  These guards keep per-pair strings from growing back — the
table's derived ``pairs`` and the view's string iteration are rigged to
raise, and everything the pipeline does must still run to completion.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.api import Pipeline, PipelineSpec, registry
from repro.blocking.token_blocking import TokenBlocking
from repro.evaluation.metrics import evaluate_blocks
from repro.mapreduce import MapReduceEngine, parallel_metablocking_ids
from repro.metablocking.graph import BlockingGraph, EdgeView, PairTable
from repro.metablocking.pruning import PRUNERS
from repro.metablocking.weighting import ARCS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SPEC = PipelineSpec.from_dict(
    {
        "blocking": {"blocker": "token", "purging": "purging", "filtering": "filtering"},
        "weighting": "ARCS",
        "pruning": "CNP",
        "matching": {"matcher": {"name": "threshold", "params": {"threshold": 0.35}}},
    }
)


@pytest.fixture
def no_pair_strings(monkeypatch):
    def per_pair_strings(*_args):
        raise AssertionError("a string was built per distinct comparison")

    monkeypatch.setattr(PairTable, "pairs", property(per_pair_strings))
    monkeypatch.setattr(EdgeView, "__iter__", per_pair_strings)


@pytest.fixture(scope="module")
def center_blocks(center_dataset):
    return TokenBlocking().build(center_dataset.kb1, center_dataset.kb2)


def test_the_guard_bites(center_blocks, no_pair_strings):
    graph = BlockingGraph(center_blocks, ARCS())
    with pytest.raises(AssertionError, match="per distinct comparison"):
        list(graph.materialize())
    with pytest.raises(AssertionError, match="per distinct comparison"):
        graph.pair_table().pairs


@pytest.mark.parametrize("pruner_name", sorted(PRUNERS))
def test_pruners_never_read_strings(center_blocks, no_pair_strings, pruner_name):
    graph = BlockingGraph(center_blocks, ARCS())
    assert len(graph.materialize()) == len(graph.weights) > 0  # bench's read
    sequential = registry.create("pruner", pruner_name).prune(graph)
    assert 0 < len(sequential) < len(graph)
    parallel, jobs = parallel_metablocking_ids(
        MapReduceEngine(workers=2), center_blocks, ARCS(),
        registry.create("pruner", pruner_name),
    )
    assert parallel == sequential
    assert len(jobs) == 2


def test_evaluate_blocks_never_reads_strings(center_dataset, center_blocks, no_pair_strings):
    data = center_dataset
    quality = evaluate_blocks(center_blocks, data.gold, len(data.kb1), len(data.kb2))
    assert 0 < quality.covered_matches <= quality.gold_matches
    assert quality.distinct_comparisons == len(center_blocks.distinct_comparisons())


@pytest.mark.parametrize(
    "backend",
    [{"kind": "sequential"}, {"kind": "mapreduce", "workers": 2, "executor": "serial"}],
    ids=lambda backend: backend["kind"],
)
def test_pipeline_never_reads_strings(center_dataset, no_pair_strings, backend):
    data = center_dataset
    spec = SPEC.with_backend(**backend)
    report = Pipeline(spec).execute(data.kb1, data.kb2, match=False)
    assert report.edges
    full = Pipeline.run(spec, data.kb1, data.kb2, gold=data.gold)  # evaluation included
    assert full.edges == report.edges
    assert full.block_quality.covered_matches > 0
    assert full.match_quality.f1 > 0


#: the batch meta-blocking and matching path; ``stream/`` and ``serving/``
#: have their own (delta) pair tables and an unrelated ``view.materialize()``
SCANNED = ("api", "core", "evaluation", "mapreduce", "matching", "metablocking", "sqlbackend")


def _per_pair_reads(tree: ast.AST) -> list[int]:
    """Lines reading a ``.pairs`` attribute or calling ``.materialize()``."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            (node.attr == "pairs" and id(node) not in called)
            or (node.attr == "materialize" and id(node) in called)
        )
    )


def test_only_the_graph_module_reads_per_pair_strings():
    """``table.pairs`` / ``graph.materialize()`` are read in ``graph.py``
    (the view and the string accessors) and by the string-plugin fallback
    of ``weight_pair_table`` — nowhere else on the batch path."""
    offences = {}
    for package in SCANNED:
        for path in sorted((SRC / package).rglob("*.py")):
            lines = _per_pair_reads(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                offences[str(path.relative_to(SRC))] = len(lines)
    assert offences.pop("metablocking/graph.py") > 0
    assert offences == {"metablocking/weighting.py": 1}, offences
