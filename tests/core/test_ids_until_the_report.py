"""The progressive loop speaks context ids; strings are for the report.

Every comparison used to build a ``(uri, uri)`` tuple and a frozen
``MatchDecision``.  These guards keep them from growing back: with both
rigged to raise, a batch run (evaluation included) and a stream replay
with queries still complete, and the loop modules do not name them.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.blocking import block
from repro.matching.matcher import MatchDecision
from repro.stream import StreamResolver
from repro.stream.workload import SCENARIOS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
LOOP_MODULES = ("session.py", "scheduler.py", "updater.py", "evidence_matcher.py")


@pytest.fixture
def no_decision_objects(monkeypatch):
    def built(*_args, **_kwargs):
        raise AssertionError("a pair tuple or decision was built in the loop")

    monkeypatch.setattr(MatchDecision, "__init__", built)
    original = block.comparison_pair
    for module in list(sys.modules.values()):
        if module.__name__.startswith("repro") and getattr(
            module, "comparison_pair", None
        ) is original:
            monkeypatch.setattr(module, "comparison_pair", built)


def test_the_rig_bites(no_decision_objects):
    with pytest.raises(AssertionError, match="in the loop"):
        MatchDecision("a", "b", 1.0, True)
    with pytest.raises(AssertionError, match="in the loop"):
        block.comparison_pair("a", "b")


def test_a_batch_run_builds_no_decision(center_dataset, no_decision_objects):
    data = center_dataset
    report = Pipeline.run(PipelineSpec(), data.kb1, data.kb2, gold=data.gold)
    assert report.progressive.match_graph.match_count > 0
    assert report.match_quality.f1 > 0  # evaluation included


def test_a_stream_replay_builds_no_decision(restaurants, no_decision_objects):
    kb1, kb2, _ = restaurants
    resolver = StreamResolver(clean_clean=True, threshold=0.35)
    matched = 0
    for event in SCENARIOS["uniform"](kb1, kb2) + SCENARIOS["churn"](kb1, kb2):
        if event.kind == "insert":
            resolver.ingest(event.description.copy(), event.source)
        elif event.kind == "delete":
            resolver.delete(event.description.uri)
        else:
            result = resolver.resolve(event.description.copy(), source=event.source)
            matched += len(result.matches)
    assert matched > 0


def test_the_loop_modules_name_no_decision_or_pair_tuple():
    for name in LOOP_MODULES:
        tree = ast.parse((SRC / "core" / name).read_text(encoding="utf-8"))
        named = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        } | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not named & {"MatchDecision", "comparison_pair"}, name
