"""The relational backend's bit-identity gate.

Acceptance contract (ISSUE 10): one spec produces identical pruned
edges and match decisions, float-for-float, on ``backend: sql`` versus
the sequential reference — across movies/restaurants/people × all six
weighting schemes × all six pruners.  The sweep loads each corpus into
SQL once and reuses the pair statistics for every scheme/pruner cell,
exactly how the backend amortizes work in production sweeps.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec, SpecError, registry
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.datasets.samples import load_movies, load_people, load_restaurants
from repro.metablocking import BlockingGraph
from repro.metablocking.pruning import PRUNERS
from repro.metablocking.weighting import SCHEMES
from repro.sqlbackend import SqlMetaBlocker, duckdb_available

CORPORA = {
    "movies": load_movies,
    "restaurants": load_restaurants,
    "people": load_people,
}

ENGINES = [
    "sqlite",
    pytest.param(
        "duckdb",
        marks=pytest.mark.skipif(
            not duckdb_available(), reason="duckdb not installed"
        ),
    ),
]


def triples(edges):
    """Exact (left, right, weight) triples — the bit-identity key."""
    return [(e.left, e.right, e.weight) for e in edges]


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus_blocks(request):
    kb1, kb2, _ = CORPORA[request.param]()
    raw = TokenBlocking().build(kb1, kb2)
    filtered = BlockFiltering().process(BlockPurging().process(raw))
    return raw, filtered


@pytest.mark.parametrize("engine", ENGINES)
def test_full_sweep_bit_identical(corpus_blocks, engine):
    """All 6 schemes × 6 pruners over one SQL load, float-for-float."""
    raw, filtered = corpus_blocks
    with SqlMetaBlocker(engine=engine) as mb:
        mb.prepare(raw, BlockPurging(), BlockFiltering())
        for scheme_name in sorted(SCHEMES):
            mb.weight(registry.create("weighting", scheme_name))
            for pruner_name in sorted(PRUNERS):
                reference = registry.create("pruner", pruner_name).prune(
                    BlockingGraph(filtered, registry.create("weighting", scheme_name))
                )
                assert triples(mb.prune(registry.create("pruner", pruner_name))) == triples(
                    reference
                ), f"{scheme_name}/{pruner_name} diverged"


class TestSpecLevel:
    """The facade contract: spec JSON in, identical report out."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_matches_sequential_with_decisions(self, engine):
        kb1, kb2, gold = load_movies()
        spec = PipelineSpec.from_dict(
            {
                "weighting": "ARCS",
                "pruning": "CNP",
                "matching": {
                    "matcher": {
                        "name": "threshold",
                        "params": {"threshold": 0.35},
                    },
                },
            }
        )
        # round-trip through JSON: the serialized spec is what runs
        spec = PipelineSpec.from_json(
            spec.with_backend(kind="sql", engine=engine).to_json()
        )
        sequential = Pipeline.run(spec.with_backend(kind="sequential"), kb1, kb2, gold=gold)
        sql = Pipeline.run(spec, kb1, kb2, gold=gold)
        assert triples(sql.edges) == triples(sequential.edges)
        assert sql.matched_pairs() == sequential.matched_pairs()
        seq_decisions = {
            d.pair: d.similarity
            for d in sequential.progressive.match_graph.matches()
        }
        sql_decisions = {
            d.pair: d.similarity for d in sql.progressive.match_graph.matches()
        }
        assert sql_decisions == seq_decisions
        # processed blocks are rebuilt from SQL, identical to python's
        assert [b.key for b in sql.processed_blocks] == [
            b.key for b in sequential.processed_blocks
        ]

    def test_backend_provenance_recorded(self):
        kb1, kb2, gold = load_movies()
        spec = PipelineSpec.from_dict({"backend": "sql"})
        report = Pipeline.run(spec, kb1, kb2, gold=gold)
        assert report.backend["kind"] == "sql"
        assert report.backend["engine"] == "sqlite"
        assert report.backend["db_path"] is None
        assert report.backend["pairs"] > 0
        assert "block_s" in report.phase_seconds
        assert "metablock_s" in report.phase_seconds

    def test_custom_postprocess_falls_back_to_python(self):
        # a registry operator the compiler cannot express still runs —
        # purging/filtering execute in python, the rest in SQL
        kb1, kb2, gold = load_movies()
        spec = PipelineSpec.from_dict(
            {
                "blocking": {
                    "filtering": {
                        "name": "filtering",
                        "params": {"ratio": 0.6},
                    },
                },
                "backend": "sql",
            }
        )

        class CustomFiltering(BlockFiltering):
            pass

        pipeline = Pipeline(spec)
        pipeline.filtering = CustomFiltering(ratio=0.6)
        report = pipeline.execute(kb1, kb2, gold=gold)
        sequential = Pipeline(spec.with_backend(kind="sequential"))
        sequential.filtering = CustomFiltering(ratio=0.6)
        expected = sequential.execute(kb1, kb2, gold=gold)
        assert triples(report.edges) == triples(expected.edges)

    def test_db_path_round_trips(self, tmp_path):
        kb1, kb2, gold = load_movies()
        db_file = tmp_path / "pipeline.db"
        spec = PipelineSpec.from_dict(
            {"backend": {"kind": "sql", "db_path": str(db_file)}}
        )
        report = Pipeline.run(spec, kb1, kb2, gold=gold)
        memory = Pipeline.run(
            spec.with_backend(db_path=None), kb1, kb2, gold=gold
        )
        assert triples(report.edges) == triples(memory.edges)
        assert db_file.exists()
        assert report.backend["db_path"] == str(db_file)

    def test_unknown_engine_is_spec_error(self):
        with pytest.raises(SpecError, match="sqlite"):
            PipelineSpec.from_dict(
                {"backend": {"kind": "sql", "engine": "postgres"}}
            )

    def test_duckdb_without_package_is_spec_error(self):
        if duckdb_available():
            pytest.skip("duckdb is installed")
        kb1, kb2, gold = load_movies()
        spec = PipelineSpec.from_dict(
            {"backend": {"kind": "sql", "engine": "duckdb"}}
        )
        with pytest.raises(SpecError, match="duckdb"):
            Pipeline.run(spec, kb1, kb2, gold=gold)
