"""A batch job makes no per-record throwaway objects: work bounds, not a stopwatch.

Loading an ``.nt`` file scans statements straight into descriptions, so
no :class:`Triple` is built for a plain (unescaped) line.  The
progressive session reads neighbourhoods from the context's id pass — one
flat pass over each collection's reference columns, no per-URI
neighbourhood call and no per-description ``object_references`` walk —
fills its queue with priorities computed in one loop, not one
``_priority`` call per pair, and asks for neighbour evidence only where
it can be non-zero.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.core.engine import ProgressiveER, ResolutionContext
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.scheduler import ComparisonScheduler
from repro.datasets import load_movies
from repro.datasets.samples import sample_path
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.rdf import load_collection, parse_ntriples
from repro.rdf.ntriples import Triple


def count_calls(monkeypatch, owner, name: str, counts: dict, key: str | None = None) -> None:
    """Count calls of ``owner.name`` into ``counts[key or name]``."""
    original = getattr(owner, name)
    counts.setdefault(key or name, 0)

    def counting(*args, **kwargs):
        counts[key or name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_loading_an_nt_file_builds_no_triple(monkeypatch):
    counts: dict = {}
    count_calls(monkeypatch, Triple, "__init__", counts)
    kb = load_collection(sample_path("movies_a.nt"))
    assert len(kb) > 0 and counts == {"__init__": 0}
    # The counter counts: the per-statement parser builds one per line.
    with open(sample_path("movies_a.nt"), encoding="utf-8") as handle:
        statements = len(list(parse_ntriples(handle)))
    assert counts == {"__init__": statements}


@pytest.mark.parametrize("benefit", ["quantity", "relationship-completeness"])
def test_a_run_reads_no_uri_neighbourhood_and_fills_without_priority_calls(
    benefit, monkeypatch
):
    kb1, kb2, gold = load_movies()
    spec = PipelineSpec.from_dict(
        {
            "matching": {
                "matcher": {"name": "threshold", "params": {"threshold": 0.35}},
                "update_phase": True,
                "benefit": benefit,
            },
        }
    )
    counts: dict = {}
    for name in ("graph", "references"):
        count_calls(monkeypatch, EntityCollection, name, counts)
    count_calls(monkeypatch, ResolutionContext, "neighborhood_ids", counts)
    add_keys, priority = ComparisonScheduler.add_keys, ComparisonScheduler._priority
    filling: list[bool] = []  # non-empty while a bulk fill runs
    counts["bulk fills"] = counts["_priority during the bulk fill"] = 0

    def counting_add_keys(self, keys, weights):
        counts["bulk fills"] += 1
        filling.append(True)
        try:
            return add_keys(self, keys, weights)
        finally:
            filling.pop()

    def counting_priority(self, key):
        counts["_priority during the bulk fill"] += bool(filling)
        return priority(self, key)

    monkeypatch.setattr(ComparisonScheduler, "add_keys", counting_add_keys)
    monkeypatch.setattr(ComparisonScheduler, "_priority", counting_priority)
    report = Pipeline.run(spec, kb1, kb2, gold=gold)
    assert report.matched_pairs()
    assert counts.pop("bulk fills") == 1
    assert counts.pop("neighborhood_ids") > 0  # neighbourhoods were read
    assert counts.pop("references") == 2  # one id pass per collection
    assert counts == {"graph": 0, "_priority during the bulk fill": 0}


def test_the_match_stage_walks_no_description_and_weighs_evidence_only_where_it_can_count(
    monkeypatch,
):
    kb1, kb2, gold = load_movies()
    counts = {"decisions": 0, "can count": 0, "evidence_ids": 0, "object_references": 0}
    matching: list[bool] = []  # non-empty while the match stage runs
    run, decide_ids = ProgressiveER.run, NeighborAwareMatcher.decide_ids
    object_references = EntityDescription.object_references
    evidence_ids = NeighborAwareMatcher.evidence_ids

    def counting_run(self, *args, **kwargs):
        matching.append(True)
        try:
            return run(self, *args, **kwargs)
        finally:
            matching.pop()

    def counting_decide_ids(self, a, b):
        context = self._context
        counts["decisions"] += 1
        counts["can count"] += bool(
            context.match_graph.match_count
            and context.neighborhood_ids(a)
            and context.neighborhood_ids(b)
        )
        return decide_ids(self, a, b)

    def counting_object_references(self):
        counts["object_references"] += bool(matching)
        return object_references(self)

    def counting_evidence_ids(self, a, b):
        counts["evidence_ids"] += 1
        return evidence_ids(self, a, b)

    monkeypatch.setattr(ProgressiveER, "run", counting_run)
    monkeypatch.setattr(NeighborAwareMatcher, "decide_ids", counting_decide_ids)
    monkeypatch.setattr(EntityDescription, "object_references", counting_object_references)
    monkeypatch.setattr(NeighborAwareMatcher, "evidence_ids", counting_evidence_ids)
    report = Pipeline.run(PipelineSpec(), kb1, kb2, gold=gold)
    assert report.matched_pairs()
    assert counts["object_references"] == 0
    # Evidence is asked for exactly where a match exists and both
    # endpoints have neighbours; that is some decisions, not all.
    assert 0 < counts["evidence_ids"] == counts["can count"] < counts["decisions"]
