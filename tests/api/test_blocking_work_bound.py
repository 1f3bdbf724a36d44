"""A pipeline run builds blocks as columns only: a work bound, not a stopwatch.

Token blocking, purging, filtering, meta-blocking and the evaluation all
read and write the columnar block table.  ``Block`` objects and the
URI-keyed ``entity_index`` are string-API views; a run that builds one
has fallen back to a per-block loop.  Counted on the sequential backend
and on the mapreduce backend with the serial executor.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.blocking import block as block_module
from repro.datasets import load_movies

BACKENDS = {
    "sequential": {"kind": "sequential"},
    "mapreduce": {"kind": "mapreduce", "workers": 2, "executor": "serial"},
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_run_builds_no_block_and_no_entity_index(backend, monkeypatch):
    kb1, kb2, gold = load_movies()
    spec = PipelineSpec.from_dict(
        {
            "blocking": {"blocker": "token", "purging": "purging", "filtering": "filtering"},
            "weighting": "ARCS",
            "pruning": "CNP",
            "backend": BACKENDS[backend],
        }
    )
    calls = {"Block": 0, "entity_index": 0}
    block_init = block_module.Block.__init__
    entity_index = block_module.BlockCollection.entity_index

    def counting_block(self, *args, **kwargs):
        calls["Block"] += 1
        block_init(self, *args, **kwargs)

    def counting_index(self):
        calls["entity_index"] += 1
        return entity_index(self)

    monkeypatch.setattr(block_module.Block, "__init__", counting_block)
    monkeypatch.setattr(block_module.BlockCollection, "entity_index", counting_index)
    report = Pipeline.run(spec, kb1, kb2, gold=gold)
    assert report.edges and report.match_quality is not None
    assert len(report.processed_blocks) > 0
    assert calls == {"Block": 0, "entity_index": 0}
