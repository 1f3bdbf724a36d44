"""Pipeline facade: spec-driven runs, cross-backend bit-equivalence.

The facade's contract: a spec-driven run is bit-identical to the same
stages wired by hand, and the **same** spec produces
bit-identical pruned edges and match decisions on the sequential,
mapreduce, stream and sql backends — on all three sample corpora.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, PipelineSpec, SpecError
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.core import (
    CostBudget,
    NeighborAwareMatcher,
    NeighborEvidencePropagator,
    ProgressiveER,
    QuantityBenefit,
)
from repro.datasets.samples import load_movies, load_people, load_restaurants
from repro.matching import SimilarityIndex, ThresholdMatcher
from repro.metablocking import ARCS, CNP, ECBS, WNP, BlockingGraph

THRESHOLD = 0.35

SPEC = PipelineSpec.from_dict(
    {
        "weighting": "ARCS",
        "pruning": "CNP",
        "matching": {
            "matcher": {"name": "threshold", "params": {"threshold": THRESHOLD}},
        },
    }
)

CORPORA = {
    "movies": load_movies,
    "restaurants": load_restaurants,
    "people": load_people,
}


def edge_triples(edges):
    """Exact (left, right, weight) triples — the bit-identity key."""
    return [(e.left, e.right, e.weight) for e in edges]


@pytest.fixture(scope="module")
def corpus(request):
    return CORPORA[request.param]()


def hand_wired(kb1, kb2, gold):
    """SPEC's stages built directly from their classes, no registry:
    ``(pruned edges, progressive result)``."""
    blocks = BlockFiltering().process(
        BlockPurging().process(TokenBlocking().build(kb1, kb2))
    )
    edges = CNP().prune(BlockingGraph(blocks, ARCS()))
    collections = [kb1, kb2]
    matcher = NeighborAwareMatcher(
        ThresholdMatcher(
            SimilarityIndex(collections), threshold=THRESHOLD, measure="cosine"
        ),
        0.3,
    )
    engine = ProgressiveER(
        matcher=matcher,
        budget=CostBudget(),
        benefit=QuantityBenefit(),
        updater=NeighborEvidencePropagator(boost_factor=1.0, discovery_weight=0.5),
        checkpoint_every=10,
    )
    return edges, engine.run(edges, collections, gold=gold)


class TestSpecEqualsDirectConstruction:
    """The equivalence gate: facade == the same stages wired by hand."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA), indirect=True)
    def test_sequential_matches_hand_wired(self, corpus):
        kb1, kb2, gold = corpus
        report = Pipeline.run(SPEC, kb1, kb2, gold=gold)
        edges, progressive = hand_wired(kb1, kb2, gold)
        assert edge_triples(report.edges) == edge_triples(edges)
        assert report.matched_pairs() == progressive.matched_pairs()
        assert (
            report.progressive.comparisons_executed
            == progressive.comparisons_executed
        )

    def test_component_spec_params_reach_components(self):
        kb1, kb2, gold = load_movies()
        spec = PipelineSpec.from_dict(
            {
                "blocking": {
                    "blocker": {"name": "qgrams", "params": {"q": 3}},
                    "filtering": {"name": "filtering", "params": {"ratio": 0.6}},
                },
                "weighting": "ECBS",
                "pruning": "WNP",
            }
        )
        from repro.blocking import QGramsBlocking

        report = Pipeline(spec).execute(kb1, kb2, match=False)
        blocks = QGramsBlocking(q=3).build(kb1, kb2)
        processed = BlockFiltering(ratio=0.6).process(BlockPurging().process(blocks))
        direct = WNP().prune(BlockingGraph(processed, ECBS()))
        assert edge_triples(report.edges) == edge_triples(direct)


class TestCrossBackendEquivalence:
    """One spec JSON, four backends, bit-identical candidates+decisions."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA), indirect=True)
    def test_backends_bit_identical(self, corpus):
        kb1, kb2, gold = corpus
        # Round-trip through JSON first: the *serialized* spec is what
        # all three backends execute.
        spec = PipelineSpec.from_json(SPEC.to_json())
        sequential = Pipeline.run(spec, kb1, kb2, gold=gold)
        mapreduce = Pipeline.run(
            spec.with_backend(kind="mapreduce", workers=3), kb1, kb2, gold=gold
        )
        stream = Pipeline.run(
            spec.with_backend(kind="stream", scenario="bursty"), kb1, kb2, gold=gold
        )
        sql = Pipeline.run(spec.with_backend(kind="sql"), kb1, kb2, gold=gold)
        assert (
            edge_triples(sequential.edges)
            == edge_triples(mapreduce.edges)
            == edge_triples(stream.edges)
            == edge_triples(sql.edges)
        )
        assert (
            sequential.matched_pairs()
            == mapreduce.matched_pairs()
            == stream.matched_pairs()
            == sql.matched_pairs()
        )
        # Decisions, not just matched pairs: similarity values align too.
        seq_decisions = {
            d.pair: d.similarity for d in sequential.progressive.match_graph.matches()
        }
        stream_decisions = {
            d.pair: d.similarity for d in stream.progressive.match_graph.matches()
        }
        assert seq_decisions == stream_decisions

    def test_backend_provenance_recorded(self):
        kb1, kb2, gold = load_movies()
        spec = SPEC.with_backend(kind="mapreduce", workers=2, executor="serial")
        report = Pipeline.run(spec, kb1, kb2, gold=gold)
        assert report.backend["kind"] == "mapreduce"
        assert report.backend["workers"] == 2
        assert report.backend["shuffle_records"] > 0
        assert report.job_metrics is not None

    def test_stream_replay_statistics_surface(self):
        kb1, kb2, gold = load_movies()
        report = Pipeline.run(
            SPEC.with_backend(kind="stream", scenario="uniform"), kb1, kb2, gold=gold
        )
        assert report.backend["kind"] == "stream"
        assert report.workload is not None
        assert report.workload.inserts == len(kb1) + len(kb2)
        assert report.workload.queries > 0

    def test_interrupted_replay_skips_bridge_and_matching(self, monkeypatch):
        """A replay cut short by a signal ends the run after the replay:
        edges over the prefix would pass for the corpus's."""
        from repro.stream.workload import WorkloadDriver

        original = WorkloadDriver.run

        def interrupted_run(self, events, **kwargs):
            def prefix():
                yield from events[:12]
                raise KeyboardInterrupt

            return original(self, prefix(), **kwargs)

        monkeypatch.setattr(WorkloadDriver, "run", interrupted_run)
        kb1, kb2, gold = load_movies()
        report = Pipeline.run(SPEC.with_backend(kind="stream"), kb1, kb2, gold=gold)
        assert report.workload.interrupted
        assert report.workload.events == 12
        assert report.edges == []
        assert report.blocks is None
        assert report.progressive is None and report.match_quality is None
        assert "metablock_s" not in report.phase_seconds


class TestStreamQueryPruner:
    """``backend.query_pruner`` reaches every query of a stream replay."""

    @staticmethod
    def replay_results(monkeypatch, **backend):
        """Run the spec on the stream backend; every query's result."""
        from repro.stream.resolver import StreamResolver

        results = []
        original = StreamResolver.resolve

        def recording(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            results.append(result)
            return result

        kb1, kb2, gold = load_restaurants()
        with monkeypatch.context() as patch:
            patch.setattr(StreamResolver, "resolve", recording)
            Pipeline.run(
                SPEC.with_backend(kind="stream", **backend), kb1, kb2, gold=gold
            )
        return [
            (r.uri, r.candidates, r.scheduled, r.comparisons, r.matches)
            for r in results
        ]

    def test_reciprocal_cnp_answers_as_cnp(self, monkeypatch):
        cnp = self.replay_results(monkeypatch, query_pruner="CNP")
        reciprocal = self.replay_results(monkeypatch, query_pruner="ReciprocalCNP")
        assert cnp and reciprocal == cnp

    def test_none_schedules_every_candidate(self, monkeypatch):
        kept = self.replay_results(monkeypatch, query_pruner="none")
        assert kept and all(scheduled == n for _, n, scheduled, _, _ in kept)
        pruned = self.replay_results(monkeypatch, query_pruner="CNP")
        assert any(scheduled < n for _, n, scheduled, _, _ in pruned)

    def test_unknown_query_pruner_is_a_spec_error(self):
        kb1, kb2, gold = load_restaurants()
        with pytest.raises(SpecError, match="nope"):
            Pipeline.run(
                SPEC.with_backend(kind="stream", query_pruner="nope"),
                kb1, kb2, gold=gold,
            )


class TestRunReport:
    def test_report_fields(self):
        kb1, kb2, gold = load_restaurants()
        report = Pipeline.run(SPEC, kb1, kb2, gold=gold)
        assert report.spec_key == SPEC.cache_key()
        assert report.blocks is not None and report.processed_blocks is not None
        assert {"block_s", "metablock_s", "match_s", "evaluate_s"} <= set(
            report.phase_seconds
        )
        assert report.match_quality is not None
        assert report.block_quality is not None
        digest = report.to_dict()
        assert digest["edges"] == len(report.edges)
        assert digest["match_quality"] is not None
        rows = report.summary_rows()
        assert any(row["stage"] == "matches" for row in rows)

    def test_evaluation_spec_disables_metrics(self):
        kb1, kb2, gold = load_restaurants()
        spec = PipelineSpec.from_dict(
            {"evaluation": {"blocks": False, "matches": False}}
        )
        report = Pipeline.run(spec, kb1, kb2, gold=gold)
        assert report.match_quality is None
        assert report.block_quality is None

    def test_oracle_matcher_via_spec(self):
        kb1, kb2, gold = load_restaurants()
        spec = PipelineSpec.from_dict(
            {"matching": {"matcher": "oracle", "update_phase": False}}
        )
        report = Pipeline.run(spec, kb1, kb2, gold=gold)
        assert report.matched_pairs() <= gold.matches

    def test_oracle_matcher_requires_gold(self):
        kb1, kb2, _ = load_restaurants()
        spec = PipelineSpec.from_dict({"matching": {"matcher": "oracle"}})
        with pytest.raises(SpecError):
            Pipeline.run(spec, kb1, kb2)


class TestDataNode:
    def test_spec_resolves_sample_corpus(self):
        spec = PipelineSpec.from_dict(
            {
                "matching": {
                    "matcher": {
                        "name": "threshold",
                        "params": {"threshold": THRESHOLD},
                    }
                },
                "data": "restaurants",
            }
        )
        report = Pipeline.run(spec)
        kb1, kb2, gold = load_restaurants()
        direct = Pipeline.run(spec, kb1, kb2, gold=gold)
        assert edge_triples(report.edges) == edge_triples(direct.edges)
        assert report.match_quality is not None

    def test_spec_resolves_paths(self, tmp_path):
        from repro.datasets.samples import sample_path

        spec = PipelineSpec.from_dict(
            {
                "data": {
                    "kb1": sample_path("movies_a.nt"),
                    "kb2": sample_path("movies_b.nt"),
                    "gold": sample_path("movies_gold.csv"),
                }
            }
        )
        report = Pipeline.run(spec)
        assert len(report.edges) > 0

    def test_missing_data_is_an_error(self):
        with pytest.raises(SpecError):
            Pipeline.run(PipelineSpec())
