"""Golden end-to-end test of the bytes → blocks → first-comparison path.

A periphery ("somehow similar") corpus is written to ``.nt`` files, read
back and resolved; the run over the files must be *the* run over the
in-memory collections — the same pruned edges float for float, the same
matches, the same area under the progressive recall curve.  Serializer,
scanner, loader grouping, tokenizer and scheduler order are all on that
path, so a deviation in any of them shows here.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.datasets import PERIPHERY_PROFILE, SyntheticConfig, synthesize_pair
from repro.rdf import Triple, load_collection, serialize_ntriples

SPEC = PipelineSpec.from_dict(
    {
        "blocking": {"blocker": "token", "purging": "purging", "filtering": "filtering"},
        "weighting": "ARCS",
        "pruning": "CNP",
        "matching": {
            "matcher": {"name": "threshold", "params": {"threshold": 0.35}},
            "update_phase": True,
            "budget": None,
        },
    }
)


@pytest.fixture(scope="module")
def corpus():
    return synthesize_pair(
        SyntheticConfig(entities=200, overlap=0.7, seed=42, profile=PERIPHERY_PROFILE)
    )


def write_nt(collection, path) -> None:
    triples = [
        Triple(d.uri, prop, value, is_literal=not value.startswith("http"))
        for d in collection
        for prop, value in d.pairs()
    ]
    path.write_text(serialize_ntriples(triples), encoding="utf-8")


def test_run_over_files_equals_run_in_memory(corpus, tmp_path):
    in_memory = Pipeline.run(SPEC, corpus.kb1, corpus.kb2, gold=corpus.gold)
    write_nt(corpus.kb1, tmp_path / "kb1.nt")
    write_nt(corpus.kb2, tmp_path / "kb2.nt")
    kb1 = load_collection(str(tmp_path / "kb1.nt"), name=corpus.kb1.name)
    kb2 = load_collection(str(tmp_path / "kb2.nt"), name=corpus.kb2.name)
    assert [d.uri for d in kb1] == [d.uri for d in corpus.kb1]
    assert all(kb2[d.uri] == d for d in corpus.kb2)

    from_files = Pipeline.run(SPEC, kb1, kb2, gold=corpus.gold)

    assert from_files.edges == in_memory.edges
    assert len(from_files.edges) > 300
    assert from_files.matched_pairs() == in_memory.matched_pairs()
    assert len(from_files.matched_pairs()) > 50
    assert from_files.progressive.curve.auc("recall") == in_memory.progressive.curve.auc(
        "recall"
    )
    assert (
        from_files.progressive.comparisons_executed
        == in_memory.progressive.comparisons_executed
    )
