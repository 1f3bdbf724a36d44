"""Spec execution: compile a :class:`PipelineSpec` onto the backbones.

:meth:`Pipeline.run` is the one entry point the CLI, the benchmarks
and the examples drive: it compiles the spec's components
through the registry, produces the pruned candidate edges on the
selected backend — sequential :class:`~repro.metablocking.graph.
BlockingGraph`, parallel MapReduce jobs, the streaming resolver's
batch bridge, or the relational (SQL-compiled) meta-blocker — then
runs the shared progressive matching and evaluation
stages, returning one :class:`RunReport` regardless of backend.

The backend contract (gated in ``tests/api/``): the same spec produces
**bit-identical pruned edges and match decisions** on every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.spec import PipelineSpec, SpecError
from repro.blocking.block import BlockCollection
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER, ProgressiveResult
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.evaluation.metrics import (
    BlockingQuality,
    MatchingQuality,
    evaluate_blocks,
    evaluate_matches,
)
from repro.matching.matcher import Matcher
from repro.matching.similarity import SimilarityIndex
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.model.collection import EntityCollection
from repro.obs import DISABLED, Observability


@dataclass
class RunReport:
    """Everything one spec-driven run produced, backend-independent.

    The report is the facade's single result type: stage artifacts
    (blocks, edges, progressive result), quality metrics when gold was
    supplied, per-phase wall-clock latency, and backend provenance
    (which execution path produced the edges, with its parameters).
    """

    spec: PipelineSpec
    #: stable spec identity (see :meth:`PipelineSpec.cache_key`)
    spec_key: str
    #: backend provenance: kind plus backend-specific detail
    backend: dict = field(default_factory=dict)
    #: per-phase wall-clock seconds (block/metablock/match/evaluate)
    phase_seconds: dict = field(default_factory=dict)
    blocks: BlockCollection | None = None
    processed_blocks: BlockCollection | None = None
    edges: list[WeightedEdge] = field(default_factory=list)
    progressive: ProgressiveResult | None = None
    block_quality: BlockingQuality | None = None
    match_quality: MatchingQuality | None = None
    #: streaming-backend replay statistics (``None`` elsewhere)
    workload: object = None
    #: mapreduce-backend job metrics (``None`` elsewhere)
    job_metrics: object = None

    def matched_pairs(self) -> set[tuple[str, str]]:
        """Final matched URI pairs."""
        if self.progressive is None:
            return set()
        return self.progressive.matched_pairs()

    def summary(self) -> dict[str, str]:
        """One-line stage summary: backend, block and comparison counts."""
        out = {
            "backend": self.backend.get("kind", "?"),
            "blocks": str(len(self.blocks) if self.blocks is not None else 0),
            "after post-processing": str(
                len(self.processed_blocks) if self.processed_blocks is not None else 0
            ),
            "scheduled comparisons": str(len(self.edges)),
        }
        if self.progressive is not None:
            out["executed comparisons"] = str(self.progressive.comparisons_executed)
            out["matches"] = str(self.progressive.match_graph.match_count)
            out["discovered matches"] = str(self.progressive.discovered_matches)
        return out

    def summary_rows(self) -> list[dict[str, str]]:
        """Report-ready rows for ``format_table``."""
        rows = [
            {"stage": key, "value": value} for key, value in self.summary().items()
        ]
        for phase, seconds in self.phase_seconds.items():
            rows.append(
                {"stage": f"{phase} (ms)", "value": f"{seconds * 1e3:.1f}"}
            )
        return rows

    def to_dict(self) -> dict:
        """JSON-able digest (heavy artifacts reduced to counts)."""
        return {
            "spec_key": self.spec_key,
            "backend": dict(self.backend),
            "phase_seconds": dict(self.phase_seconds),
            "blocks": len(self.blocks) if self.blocks is not None else None,
            "processed_blocks": (
                len(self.processed_blocks)
                if self.processed_blocks is not None
                else None
            ),
            "edges": len(self.edges),
            "matches": len(self.matched_pairs()),
            "match_quality": (
                self.match_quality.as_row() if self.match_quality else None
            ),
            "block_quality": (
                self.block_quality.as_row() if self.block_quality else None
            ),
        }


class Pipeline:
    """Compiled form of one :class:`PipelineSpec`.

    Construction resolves every component through the registry (the
    spec has already validated names and parameters, so compilation
    cannot fail on unknown components).  Stages are exposed separately
    (:meth:`block`, :meth:`meta_block`, :meth:`match`) for the sweeps
    that reuse intermediate artifacts; :meth:`run` composes them across
    any backend.
    """

    def __init__(
        self, spec: PipelineSpec, obs: Observability | None = None
    ) -> None:
        self.spec = spec
        self.obs = obs if obs is not None else DISABLED
        blocking = spec.blocking
        self.blocker = blocking.blocker.build("blocker")
        self.purging = (
            blocking.purging.build("postprocess") if blocking.purging else None
        )
        self.filtering = (
            blocking.filtering.build("postprocess") if blocking.filtering else None
        )
        self.scheme = spec.weighting.build("weighting")
        self.pruner = spec.pruning.build("pruner")
        self.benefit = spec.matching.benefit.build("benefit")

    # -- one-call entry point -------------------------------------------------

    @classmethod
    def run(
        cls,
        spec: PipelineSpec,
        kb1: EntityCollection | None = None,
        kb2: EntityCollection | None = None,
        gold: GoldStandard | None = None,
        obs: Observability | None = None,
    ) -> RunReport:
        """Execute *spec* end to end and return the unified report.

        Args:
            spec: the validated pipeline description.
            kb1 / kb2: input collections; omitted, they resolve from the
                spec's ``data`` node.
            gold: ground truth for evaluation (or from the data node).
            obs: observability handle — the run then emits one span per
                stage under a ``pipeline.run`` root, across every
                backend.

        Raises:
            SpecError: when no input data is available from either
                source.
        """
        if kb1 is None:
            if kb2 is not None:
                raise SpecError("kb2 was supplied without kb1")
            if spec.data is None:
                raise SpecError(
                    "no input data: pass kb1/kb2 or give the spec a data node"
                )
            kb1, kb2, data_gold = spec.data.resolve()
            gold = gold if gold is not None else data_gold
        if kb1 is None:
            raise SpecError("the spec's data node resolved no collections")
        return cls(spec, obs=obs).execute(kb1, kb2, gold=gold)

    # -- individual stages ----------------------------------------------------

    def block(
        self,
        kb1: EntityCollection,
        kb2: EntityCollection | None = None,
    ) -> tuple[BlockCollection, BlockCollection]:
        """Blocking + post-processing; returns ``(raw, processed)``.

        Emits one span per stage — ``pipeline.blocking``, then
        ``pipeline.purging`` and ``pipeline.filtering`` (a stage with no
        operator configured is still traced, with ``skipped=True``).
        """
        blocks = self._build_blocks(kb1, kb2)
        return blocks, self._post_process(blocks)

    def _build_blocks(self, kb1, kb2) -> BlockCollection:
        entities = len(kb1) + (len(kb2) if kb2 is not None else 0)
        with self.obs.span("pipeline.blocking", entities=entities) as span:
            blocks = self.blocker.build(kb1, kb2)
            span.set(blocks=len(blocks))
        return blocks

    def _post_process(self, blocks: BlockCollection) -> BlockCollection:
        """Purging then filtering, one span each."""
        obs = self.obs
        processed = blocks
        with obs.span("pipeline.purging") as span:
            if self.purging is not None:
                processed = self.purging.process(processed)
            span.set(blocks=len(processed), skipped=self.purging is None)
        with obs.span("pipeline.filtering") as span:
            if self.filtering is not None:
                processed = self.filtering.process(processed)
            span.set(blocks=len(processed), skipped=self.filtering is None)
        return processed

    def meta_block(self, blocks: BlockCollection) -> list[WeightedEdge]:
        """Weight + prune the blocking graph sequentially.

        The two stages get separate spans: the weight column is cached
        on the graph, so forcing it under the weighting span leaves the
        pruning span with only the pruner's own work — honest per-stage
        attribution at no extra cost.
        """
        obs = self.obs
        graph = BlockingGraph(blocks, self.scheme)
        with obs.span("pipeline.weighting") as span:
            span.set(pairs=len(graph.weights))
        with obs.span("pipeline.pruning") as span:
            edges = self.pruner.prune(graph)
            span.set(edges=len(edges))
        return edges

    def build_matcher(
        self,
        collections: list[EntityCollection],
        gold: GoldStandard | None = None,
    ) -> Matcher:
        """Compile the spec's matcher for these collections."""
        matching = self.spec.matching
        name = matching.matcher.name.lower()
        if name == "oracle":
            if gold is None:
                raise SpecError("the oracle matcher needs a gold standard")
            return matching.matcher.build("matcher", gold=gold.matches)
        index = SimilarityIndex(collections)
        matcher: Matcher = matching.matcher.build("matcher", index=index)
        if matching.update_phase and matching.evidence_weight > 0:
            matcher = NeighborAwareMatcher(matcher, matching.evidence_weight)
        return matcher

    def match(
        self,
        edges: list[WeightedEdge],
        collections: list[EntityCollection],
        gold: GoldStandard | None = None,
        label: str | None = None,
    ) -> ProgressiveResult:
        """Shared progressive matching stage over pruned *edges*."""
        matching = self.spec.matching
        engine = ProgressiveER(
            matcher=self.build_matcher(collections, gold),
            budget=CostBudget(matching.budget),
            benefit=self.benefit,
            updater=(
                NeighborEvidencePropagator(
                    boost_factor=matching.boost_factor,
                    discovery_weight=matching.discovery_weight,
                )
                if matching.update_phase
                else None
            ),
            checkpoint_every=matching.checkpoint_every,
        )
        return engine.run(edges, collections, gold=gold, label=label)

    # -- backend edge production ----------------------------------------------

    def _record_blocks(self, kb1, kb2, report: RunReport) -> None:
        """Fill the report's block stages (one span each)."""
        t0 = time.perf_counter()
        report.blocks, report.processed_blocks = self.block(kb1, kb2)
        report.phase_seconds["block_s"] = time.perf_counter() - t0

    def _edges_sequential(self, kb1, kb2, report: RunReport) -> list[WeightedEdge]:
        self._record_blocks(kb1, kb2, report)
        t0 = time.perf_counter()
        edges = self.meta_block(report.processed_blocks)
        report.phase_seconds["metablock_s"] = time.perf_counter() - t0
        report.backend.update({"kind": "sequential"})
        return edges

    def _edges_mapreduce(self, kb1, kb2, report: RunReport) -> list[WeightedEdge]:
        from repro.mapreduce import (
            MapReduceEngine,
            ProcessExecutor,
            parallel_metablocking_ids,
        )

        backend = self.spec.backend
        self._record_blocks(kb1, kb2, report)

        executor = backend.executor
        if executor == "process" and not ProcessExecutor.available():
            executor = "serial"
        obs = self.obs
        t0 = time.perf_counter()
        with obs.span("pipeline.weighting", fused=True) as span:
            with MapReduceEngine(
                workers=backend.workers, executor=executor, obs=obs
            ) as engine:
                edges, metrics = parallel_metablocking_ids(
                    engine, report.processed_blocks, self.scheme, self.pruner
                )
            span.set(edges=len(edges))
        if obs.enabled:
            # Weighting and pruning fuse inside the reducers on this
            # backend; the zero-duration marker keeps the pruning stage
            # present (and honestly empty) in every trace.
            obs.event("pipeline.pruning", 0.0, fused=True, edges=len(edges))
        report.phase_seconds["metablock_s"] = time.perf_counter() - t0
        report.job_metrics = metrics
        report.backend.update(
            {
                "kind": "mapreduce",
                "workers": backend.workers,
                "executor": executor,
                "shuffle_records": sum(m.shuffle_records for m in metrics),
                "shuffle_bytes": sum(m.shuffle_bytes for m in metrics),
            }
        )
        return edges

    def _edges_sql(self, kb1, kb2, report: RunReport) -> list[WeightedEdge]:
        from repro.blocking.filtering import BlockFiltering
        from repro.blocking.purging import BlockPurging
        from repro.sqlbackend import SqlBackendError, SqlMetaBlocker

        backend = self.spec.backend
        obs = self.obs
        # Only the built-in purging/filtering operators compile to SQL;
        # custom registry operators run in python and their output is
        # loaded as-is (weighting/pruning still execute relationally).
        compilable = (
            self.purging is None or type(self.purging) is BlockPurging
        ) and (self.filtering is None or type(self.filtering) is BlockFiltering)
        try:
            mb = SqlMetaBlocker(
                engine=backend.engine,
                db_path=backend.db_path,
                workers=backend.workers,
                obs=obs,
            )
        except SqlBackendError as exc:
            raise SpecError(str(exc)) from exc
        try:
            with mb:
                if not compilable:
                    self._record_blocks(kb1, kb2, report)
                    mb.load_blocks(report.processed_blocks)
                    mb.purge(None)
                    mb.filter(None)
                else:
                    t0 = time.perf_counter()
                    report.blocks = self._build_blocks(kb1, kb2)
                    mb.load_blocks(report.blocks)
                    with obs.span("pipeline.purging") as span:
                        threshold = mb.purge(self.purging)
                        span.set(
                            blocks=mb.stats["purged_blocks"],
                            skipped=self.purging is None,
                            threshold=threshold,
                        )
                    with obs.span("pipeline.filtering") as span:
                        mb.filter(self.filtering)
                        span.set(
                            blocks=mb.stats["filtered_blocks"],
                            skipped=self.filtering is None,
                        )
                    report.processed_blocks = mb.processed_collection()
                    report.phase_seconds["block_s"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                with obs.span("pipeline.weighting") as span:
                    mb.weight(self.scheme)
                    span.set(pairs=mb.stats["pairs"])
                with obs.span("pipeline.pruning") as span:
                    edges = mb.prune(self.pruner)
                    span.set(edges=len(edges))
                report.phase_seconds["metablock_s"] = time.perf_counter() - t0
                report.backend.update(
                    {
                        "kind": "sql",
                        "engine": backend.engine,
                        "db_path": backend.db_path,
                        "workers": backend.workers,
                        "pairs": mb.stats.get("pairs"),
                        "purge_threshold": mb.stats.get("purge_threshold"),
                    }
                )
        except SqlBackendError as exc:
            raise SpecError(str(exc)) from exc
        return edges

    def _edges_stream(self, kb1, kb2, report: RunReport) -> list[WeightedEdge]:
        from repro.api.registry import registry
        from repro.stream.resolver import StreamResolver
        from repro.stream.workload import WorkloadDriver

        backend = self.spec.backend
        matching = self.spec.matching
        threshold = matching.matcher.params.get("threshold", 0.4)
        durability = None
        if backend.durability_dir is not None:
            from repro.stream.durability import Durability

            durability = Durability(
                backend.durability_dir, snapshot_every=backend.snapshot_every
            )
        try:
            resolver = StreamResolver(
                blocker=self.blocker,
                clean_clean=kb2 is not None,
                threshold=threshold,
                processed_view=backend.processed_view,
                reconcile_every=backend.reconcile_every,
                durability=durability,
                obs=self.obs,
            )
        except ValueError as exc:  # a durability_dir holding an earlier run
            raise SpecError(str(exc)) from exc
        generator = registry.factory("scenario", backend.scenario.name)
        events = generator(
            kb1, kb2, seed=backend.seed, **backend.scenario.params
        )
        # The streaming resolver prunes each query's neighbourhood with
        # the pruner's node rule — a star has one node, so a reciprocal
        # variant keeps what its base algorithm keeps (the bridge edges
        # below honour the exact pruner).
        query_pruner = backend.query_pruner or self.spec.pruning.name
        obs = self.obs
        t0 = time.perf_counter()
        with obs.span("stream.replay", scenario=backend.scenario.name) as span:
            report.workload = WorkloadDriver(resolver).run(
                events,
                scenario=backend.scenario.name,
                scheme=self.spec.weighting.name,
                pruner=query_pruner,
                budget=backend.query_budget,
            )
            span.set(
                events=report.workload.events,
                interrupted=report.workload.interrupted,
            )
        report.phase_seconds["replay_s"] = time.perf_counter() - t0
        # Flush the telemetry snapshot BEFORE the WAL closes: an
        # interrupted replay (the driver swallows SIGINT and returns
        # partial stats) must leave its metrics and trace on disk even
        # if shutting the durability layer down fails afterwards.
        obs.flush()
        # Clean shutdown of the WAL — an interrupted replay stays
        # recoverable from the durability directory.
        resolver.close()

        report.backend.update(
            {
                "kind": "stream",
                "scenario": backend.scenario.name,
                "processed_view": backend.processed_view,
                "events": report.workload.events,
                "queries": report.workload.queries,
                "deletes": report.workload.deletes,
                "durability_dir": backend.durability_dir,
            }
        )
        if report.workload.interrupted:
            # A signal cut the replay short: edges over the prefix would
            # pass for the corpus's, so the run stops here.
            return []
        # The batch bridge: snapshots of the streamed state run through
        # the exact spec-compiled operators, bit-identical to the
        # sequential path on the same corpus.
        t0 = time.perf_counter()
        with obs.span("pipeline.blocking", bridge=True) as span:
            report.blocks = resolver.index.snapshot()
            span.set(blocks=len(report.blocks))
        report.processed_blocks = self._post_process(report.blocks)
        report.phase_seconds["block_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        edges = self.meta_block(report.processed_blocks)
        report.phase_seconds["metablock_s"] = time.perf_counter() - t0
        return edges

    # -- composition ----------------------------------------------------------

    def execute(
        self,
        kb1: EntityCollection,
        kb2: EntityCollection | None = None,
        gold: GoldStandard | None = None,
        label: str | None = None,
        match: bool = True,
    ) -> RunReport:
        """Run all stages on the spec's backend; returns the report.

        Args:
            match: with ``False`` the run stops after edge production —
                the sweeps that only evaluate pruned candidates use
                this to skip the matching stage.

        A stream replay cut short by SIGINT / SIGTERM (see
        :func:`~repro.stream.workload.graceful_sigterm`) ends the run
        after the replay: the report carries the partial
        ``workload`` statistics, no edges and no matching result.
        """
        report = RunReport(spec=self.spec, spec_key=self.spec.cache_key())
        kind = self.spec.backend.kind
        obs = self.obs
        with obs.span("pipeline.run", backend=kind) as root:
            if kind == "sequential":
                edges = self._edges_sequential(kb1, kb2, report)
            elif kind == "mapreduce":
                edges = self._edges_mapreduce(kb1, kb2, report)
            elif kind == "sql":
                edges = self._edges_sql(kb1, kb2, report)
            else:
                edges = self._edges_stream(kb1, kb2, report)
                match = match and not report.workload.interrupted
            report.edges = edges
            root.set(edges=len(edges))
            if not match:
                return report

            collections = [kb1] if kb2 is None else [kb1, kb2]
            t0 = time.perf_counter()
            with obs.span("pipeline.matching") as span:
                report.progressive = self.match(
                    edges, collections, gold=gold, label=label
                )
                span.set(
                    comparisons=report.progressive.comparisons_executed,
                    matches=report.progressive.match_graph.match_count,
                )
            report.phase_seconds["match_s"] = time.perf_counter() - t0

            if gold is not None:
                t0 = time.perf_counter()
                with obs.span("pipeline.evaluation") as span:
                    evaluation = self.spec.evaluation
                    if evaluation.blocks and report.processed_blocks is not None:
                        report.block_quality = evaluate_blocks(
                            report.processed_blocks,
                            gold,
                            len(kb1),
                            len(kb2) if kb2 is not None else None,
                        )
                    if evaluation.matches:
                        report.match_quality = evaluate_matches(
                            report.progressive.matched_pairs(), gold
                        )
                report.phase_seconds["evaluate_s"] = time.perf_counter() - t0
        return report
