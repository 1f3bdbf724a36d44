"""The seven workloads, run one per fresh subprocess by ``bench/run.py``.

Each workload builds its inputs from the seed, measures end to end
without tracing, and -- when asked -- measures again stage by stage with
a span around every call into ``repro``.  Sizes are entity counts of
``SyntheticConfig`` at scale 1; see bench/README.md for why each
workload exists and what it is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

from harness import (
    MachineSpeed,
    Tracer,
    peak_rss_mib,
    percentile,
    summarize,
    value,
)
from oracle import (
    Ledger,
    canonical_state,
    digest,
    leaked_shm_segments,
    leftover_files,
)

from repro.api import Pipeline, PipelineSpec
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveER
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets import (
    CENTER_PROFILE,
    PERIPHERY_PROFILE,
    GoldStandard,
    SyntheticConfig,
    synthesize_pair,
)
from repro.evaluation import evaluate_blocks, evaluate_matches
from repro.mapreduce import MapReduceEngine, parallel_metablocking_ids
from repro.metablocking import BlockingGraph
from repro.model import EntityCollection
from repro.obs import Observability
from repro.rdf import load_collection
from repro.rdf.ntriples import Triple, serialize_ntriples
from repro.serving import Router, verify_equivalence
from repro.sqlbackend import SqlMetaBlocker
from repro.stream import StreamResolver
from repro.stream.durability import Durability, OsFiles, capture_state

#: workload -> (profile, entities at scale 1, share of the universe a seed
#: keeps).  Sized so that one run -- set-ups, a warm-up, ``run_seconds`` of
#: repeats, the oracle -- stays near 15 s on 2 CPUs (the driver makes 158).
#: sql-center keeps everything, so its seed only reorders the descriptions:
#: the SQL weighting cost swings 1.8x between 80 % samples of one universe.
SIZES = {
    "batch-center": (CENTER_PROFILE, 1000, 0.8),
    "batch-periphery": (PERIPHERY_PROFILE, 2000, 0.8),
    "mapreduce-center": (CENTER_PROFILE, 2000, 0.8),
    "sql-center": (CENTER_PROFILE, 200, 1.0),
    "stream-mixed": (CENTER_PROFILE, 600, 0.8),
    "stream-durable": (CENTER_PROFILE, 400, 0.8),
    "serve-2shard": (CENTER_PROFILE, 150, 0.8),
}
MIN_ENTITIES = 40
THRESHOLD = 0.35
SPEC = {
    "blocking": {"blocker": "token", "purging": "purging", "filtering": "filtering"},
    "weighting": "ARCS",
    "pruning": "CNP",
    "matching": {
        "matcher": {"name": "threshold", "params": {"threshold": THRESHOLD}},
        "update_phase": True,
        "budget": None,
    },
}
BACKENDS = {
    "mapreduce-center": {
        "kind": "mapreduce", "workers": 2, "executor": "process", "formulation": "int",
    },
    "sql-center": {"kind": "sql", "engine": "sqlite"},
}
#: the generator seed of every universe
UNIVERSE_SEED = 42
#: set up at least this often, and for at least this share of ``--seconds``
SETUP_REPEATS = 5
SETUP_SHARE = 0.1
#: open-loop arrival rate of serve-2shard phase A, about 40 % of capacity
OPEN_LOOP_EPS = 100.0
SHARDS = 2
VERIFY_QUERIES = 40
RECOVER_REPEATS = 5
SNAPSHOT_EVERY = 200


@dataclass
class Corpus:
    kb1: EntityCollection
    kb2: EntityCollection
    gold: GoldStandard


@dataclass
class Run:
    """One workload process: its arguments, ledger, tracer and metrics."""

    name: str
    seed: int
    seconds: float
    traced: bool
    scale: float
    tmp: str
    ledger: Ledger = field(default_factory=Ledger)
    tracer: Tracer = field(default_factory=Tracer)
    speed: MachineSpeed = field(default_factory=MachineSpeed)
    metrics: dict = field(default_factory=dict)

    @property
    def entities(self) -> int:
        return max(MIN_ENTITIES, round(SIZES[self.name][1] * self.scale))

    def dataset(self) -> "Corpus":
        """The seed's sample of the workload's synthetic universe.

        The universe -- vocabulary, schemas, entities -- comes from one
        fixed generator seed; ``--seed`` picks which share of its entities
        the two KBs describe, and in which order.  Seeding the generator
        itself makes the cost of the same job differ by 1.5x between seeds
        at these sizes (the purging threshold flips), which would drown
        every timing in input variance.
        """
        profile, _, keep = SIZES[self.name]
        universe = synthesize_pair(
            SyntheticConfig(
                entities=round(self.entities / keep),
                overlap=0.7,
                seed=UNIVERSE_SEED,
                profile=profile,
            )
        )
        entity_of = universe.entity_of
        ids = sorted(set(entity_of.values()))
        chosen = random.Random(self.seed).sample(ids, round(len(ids) * keep))
        rank = {entity: position for position, entity in enumerate(chosen)}
        kbs = []
        for full in (universe.kb1, universe.kb2):
            sample = EntityCollection(name=full.name)
            kept = [d for d in full if entity_of[d.uri] in rank]
            for description in sorted(kept, key=lambda d: rank[entity_of[d.uri]]):
                sample.add(description)
            kbs.append(sample)
        clusters = [
            cluster
            for cluster in universe.gold.clusters
            if all(entity_of[uri] in rank for uri in cluster)
        ]
        return Corpus(kbs[0], kbs[1], GoldStandard(clusters=clusters))

    def emit(self, name: str, entry: dict) -> None:
        self.metrics[name] = entry

    def emit_layer_seconds(self, *names: str) -> None:
        """``<span name>_s`` as the median over runs of the span's self time."""
        for name in names:
            self.emit(f"{name}_s", summarize(self.tracer.per_run(name) or [0.0], "s"))

    def repeats(self, min_repeats: int, untraced, traced, parallel: int = 1):
        """Calibrated repeats for ``--seconds``: ``(untraced, traced)`` lists.

        A traced run alternates ``untraced(i)`` and ``traced(i)`` so that
        both see the same machine; their ratio is the tracing overhead.
        """
        if not self.traced:
            return self.speed.repeat_for(self.seconds, min_repeats, untraced, parallel), []
        mixed = self.speed.repeat_for(
            self.seconds,
            2 * min_repeats,
            lambda i: traced(i // 2) if i % 2 else untraced(i // 2),
            parallel,
        )
        return mixed[0::2], mixed[1::2]


def spec_for(name: str) -> PipelineSpec:
    return PipelineSpec.from_dict({**SPEC, "backend": BACKENDS.get(name, {})})


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def emit_walls(run: Run, timed_walls: list[tuple]) -> list[float]:
    """``wall_s`` at the reference machine speed, the raw median beside it."""
    walls = [wall * factor for wall, factor in timed_walls]
    run.emit("wall_s", summarize(walls, "s"))
    run.emit("wall_raw_s", summarize([wall for wall, _ in timed_walls], "s"))
    return walls


def median_setup(run: Run, setup, teardown=None):
    """Set up repeatedly; keep the last state, report the median time.

    A set-up of a few hundredths of a second is repeated for
    ``SETUP_SHARE`` of the measuring time, so that its median is as
    steady as that of a set-up that takes half a second.
    """
    seconds = []
    state = None
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SHARE * run.seconds:
        if state is not None and teardown is not None:
            teardown(state)
        (state, took), factor = run.speed.calibrated(lambda: timed(setup))
        seconds.append(took * factor)
    run.emit("setup_s", summarize(seconds, "s"))
    return state


# -- job workloads: batch-center, batch-periphery, mapreduce-center, sql-center --


def write_nt(collection, path: str) -> int:
    triples = [
        Triple(d.uri, prop, val, is_literal=not val.startswith("http"))
        for d in collection
        for prop, val in d.pairs()
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_ntriples(triples))
    return len(triples)


@dataclass
class JobState:
    kb1: EntityCollection
    kb2: EntityCollection
    gold: object
    spec: PipelineSpec
    descriptions: int
    #: batch-*: the two .nt files and their triple count
    paths: tuple = ()
    triples: int = 0
    #: reference output: digest (batch-*) or sequential edges (mapreduce/sql)
    reference: object = None
    #: sequential wall of the same job (mapreduce/sql single-process baseline)
    sequential_s: float = 0.0
    sequential_metablock_s: float = 0.0


def setup_job(run: Run) -> JobState:
    data = run.dataset()
    state = JobState(
        data.kb1, data.kb2, data.gold, spec_for(run.name),
        len(data.kb1) + len(data.kb2),
    )
    sequential = PipelineSpec.from_dict(SPEC)
    if run.name.startswith("batch"):
        inputs = os.path.join(run.tmp, "inputs")
        os.makedirs(inputs, exist_ok=True)
        state.paths = (os.path.join(inputs, "kb1.nt"), os.path.join(inputs, "kb2.nt"))
        state.triples = write_nt(data.kb1, state.paths[0]) + write_nt(
            data.kb2, state.paths[1]
        )
        # Reference: the same spec over the in-memory collections, which
        # never went through the serialiser or the loader.
        report = Pipeline.run(sequential, data.kb1, data.kb2, gold=data.gold)
        state.reference = digest(report.edges, report.matched_pairs())
    else:
        report, state.sequential_s = timed(
            lambda: Pipeline(sequential).execute(data.kb1, data.kb2, match=False)
        )
        state.reference = report.edges
        state.sequential_metablock_s = report.phase_seconds["metablock_s"]
    return state


def job_untraced(run: Run, state: JobState) -> dict:
    """One end-to-end job: input -> complete result, as a user runs it."""
    start = time.perf_counter()
    if state.paths:
        kb1 = load_collection(state.paths[0], name="kb1")
        kb2 = load_collection(state.paths[1], name="kb2")
        report = Pipeline.run(state.spec, kb1, kb2, gold=state.gold)
    else:
        report = Pipeline(state.spec).execute(state.kb1, state.kb2, match=False)
    wall = time.perf_counter() - start
    check_job(run, state, report.edges, report.matched_pairs())
    out = {"wall_s": wall}
    if state.paths:
        out["f1"] = report.match_quality.f1
        out["recall_auc"] = report.progressive.curve.auc("recall")
    return out


def check_job(run: Run, state: JobState, edges, matched) -> None:
    if state.paths:
        run.ledger.check(
            digest(edges, matched) == state.reference,
            f"{run.name}: edge+match digest differs from the in-memory reference",
        )
    else:
        run.ledger.check(
            edges == state.reference,
            f"{run.name}: edges differ from the sequential edges",
        )


def job_traced(run: Run, state: JobState, index: int) -> dict:
    """The same job with the harness calling each stage under a span."""
    tracer = run.tracer
    tracer.run = index
    span = tracer.span
    counts: dict = {}
    matched = ()
    with span("job") as root:
        with span("api.spec_compile"):
            pipeline = Pipeline(state.spec)
        kb1, kb2 = state.kb1, state.kb2
        if state.paths:
            with span("rdf.parse"):
                kb1 = load_collection(state.paths[0], name="kb1")
                kb2 = load_collection(state.paths[1], name="kb2")
        with span("blocking.build"):
            raw = pipeline.blocker.build(kb1, kb2)
        if run.name == "sql-center":
            edges, processed = sql_stages(run, pipeline, raw, counts)
        else:
            with span("blocking.purge"):
                purged = pipeline.purging.process(raw)
            with span("blocking.filter"):
                processed = pipeline.filtering.process(purged)
            if run.name == "mapreduce-center":
                edges = mapreduce_stages(run, pipeline, processed, counts)
            else:
                graph = BlockingGraph(processed, pipeline.scheme)
                with span("metablocking.materialize"):
                    counts["pairs"] = len(graph.materialize())
                with span("metablocking.prune"):
                    edges = pipeline.pruner.prune(graph)
        if state.paths:
            matching = state.spec.matching
            collections = [kb1, kb2]
            with span("matching.index"):
                matcher = pipeline.build_matcher(collections, state.gold)
            engine = ProgressiveER(
                matcher=matcher,
                budget=CostBudget(matching.budget),
                benefit=pipeline.benefit,
                updater=NeighborEvidencePropagator(
                    boost_factor=matching.boost_factor,
                    discovery_weight=matching.discovery_weight,
                ),
                checkpoint_every=matching.checkpoint_every,
            )
            with span("core.progressive"):
                result = engine.run(edges, collections, gold=state.gold)
            with span("evaluation"):
                quality = evaluate_blocks(processed, state.gold, len(kb1), len(kb2))
                matched = result.matched_pairs()
                evaluate_matches(matched, state.gold)
            counts.update(
                comparisons=result.comparisons_executed,
                matches=result.match_graph.match_count,
                block_comparisons=quality.total_comparisons,
                pairs_completeness=quality.pairs_completeness,
                reduction_ratio=quality.reduction_ratio,
            )
    check_job(run, state, edges, matched)
    counts.update(
        wall_s=root["end"] - root["start"],
        blocks_raw=len(raw),
        blocks_processed=len(processed),
        edges=len(edges),
        gold_edges=sum(1 for e in edges if e.pair in state.gold.matches),
    )
    return counts


def mapreduce_stages(run: Run, pipeline, processed, counts: dict):
    span = run.tracer.span
    with span("mapreduce.engine_start"):
        engine = MapReduceEngine(
            workers=BACKENDS[run.name]["workers"], executor="process"
        )
    try:
        with span("mapreduce.metablock"):
            edges, jobs = parallel_metablocking_ids(
                engine, processed, pipeline.scheme, pipeline.pruner
            )
    finally:
        with span("mapreduce.engine_stop"):
            engine.close()
    counts.update(
        map_wall_s=sum(j.map_wall_s for j in jobs),
        reduce_wall_s=sum(j.reduce_wall_s for j in jobs),
        shuffle_bytes=sum(j.shuffle_bytes for j in jobs),
        shuffle_records=sum(j.shuffle_records for j in jobs),
    )
    return edges


def sql_stages(run: Run, pipeline, raw, counts: dict):
    span = run.tracer.span
    with span("sqlbackend.open"):
        blocker = SqlMetaBlocker(engine="sqlite")
    with blocker:
        with span("sqlbackend.load"):
            blocker.load_blocks(raw)
        with span("sqlbackend.purge"):
            blocker.purge(pipeline.purging)
        with span("sqlbackend.filter"):
            blocker.filter(pipeline.filtering)
        with span("sqlbackend.collect"):
            processed = blocker.processed_collection()
        with span("sqlbackend.weight"):
            blocker.weight(pipeline.scheme)
        with span("sqlbackend.prune"):
            edges = blocker.prune(pipeline.pruner)
        counts["pairs"] = blocker.stats["pairs"]
    return edges, processed


def run_job_workload(run: Run) -> None:
    state = median_setup(run, lambda: setup_job(run))
    job_untraced(run, state)  # warm-up: imports, registries, allocator
    jobs, traced_jobs = run.repeats(
        5,
        lambda _: job_untraced(run, state),
        lambda i: job_traced(run, state, i),
        BACKENDS.get(run.name, {}).get("workers", 1),
    )
    walls = emit_walls(run, [(job["wall_s"], factor) for job, factor in jobs])
    run.emit(
        "events_per_s", summarize([state.descriptions / w for w in walls], "1/s")
    )
    if state.paths:
        run.emit("e2e.f1", value(jobs[0][0]["f1"], "ratio"))
        run.emit("e2e.recall_auc", value(jobs[0][0]["recall_auc"], "ratio"))
    run.emit("peak_rss_mib", value(peak_rss_mib(), "MiB"))
    if run.traced:
        emit_job_layers(run, state, traced_jobs, statistics.median(walls))
    if run.name == "mapreduce-center":
        for segment in leaked_shm_segments():
            run.ledger.fail(f"leaked shared-memory segment {segment}")
    if state.paths:
        shutil.rmtree(os.path.dirname(state.paths[0]))


def emit_job_layers(
    run: Run, state: JobState, timed_jobs: list[tuple], untraced_wall: float
) -> None:
    tracer, emit = run.tracer, run.emit
    wall = statistics.median(job["wall_s"] * factor for job, factor in timed_jobs)
    jobs = [job for job, _ in timed_jobs]
    last = jobs[-1]
    emit("bench.trace_overhead_ratio", value(wall / untraced_wall, "ratio"))
    emit("api.unattributed_share", value(tracer.unattributed_share("job"), "ratio"))
    run.emit_layer_seconds("api.spec_compile", "blocking.build")
    emit("blocking.blocks_raw", value(last["blocks_raw"], "count"))
    emit("blocking.blocks_processed", value(last["blocks_processed"], "count"))
    emit("metablocking.edges_kept", value(last["edges"], "count"))
    emit(
        "metablocking.edge_yield",
        value(last["gold_edges"] / max(last["edges"], 1), "ratio"),
    )
    if run.name == "sql-center":
        run.emit_layer_seconds(
            "sqlbackend.load", "sqlbackend.purge", "sqlbackend.filter",
            "sqlbackend.collect", "sqlbackend.weight", "sqlbackend.prune",
        )
        emit("sqlbackend.pairs", value(last["pairs"], "count"))
        emit(
            "sqlbackend.slowdown_vs_sequential",
            value(wall / state.sequential_s, "ratio"),
        )
        return
    run.emit_layer_seconds("blocking.purge", "blocking.filter")
    if run.name == "mapreduce-center":
        run.emit_layer_seconds("mapreduce.engine_start", "mapreduce.metablock")
        for key, unit in (
            ("map_wall_s", "s"), ("reduce_wall_s", "s"),
            ("shuffle_bytes", "B"), ("shuffle_records", "count"),
        ):
            emit(f"mapreduce.{key}", summarize([job[key] for job in jobs], unit))
        emit(
            "mapreduce.speedup_vs_sequential",
            value(
                state.sequential_metablock_s / tracer.median_s("mapreduce.metablock"),
                "ratio",
            ),
        )
        emit(
            "mapreduce.worker_peak_rss_mib",
            value(peak_rss_mib(resource.RUSAGE_CHILDREN), "MiB"),
        )
        emit("mapreduce.leaked_shm_segments", value(len(leaked_shm_segments()), "count"))
        return
    run.emit_layer_seconds(
        "rdf.parse", "metablocking.materialize", "metablocking.prune",
        "matching.index", "core.progressive",
    )
    emit("evaluation.s", summarize(tracer.per_run("evaluation"), "s"))
    parse_s = tracer.median_s("rdf.parse")
    materialize_s = tracer.median_s("metablocking.materialize")
    progressive_s = tracer.median_s("core.progressive")
    emit("rdf.triples", value(state.triples, "count"))
    emit("rdf.triples_per_s", value(state.triples / parse_s, "1/s"))
    emit("blocking.comparisons", value(last["block_comparisons"], "count"))
    emit("blocking.pairs_completeness", value(last["pairs_completeness"], "ratio"))
    emit("blocking.reduction_ratio", value(last["reduction_ratio"], "ratio"))
    emit("metablocking.pairs", value(last["pairs"], "count"))
    emit("metablocking.pairs_per_s", value(last["pairs"] / materialize_s, "1/s"))
    emit("core.comparisons", value(last["comparisons"], "count"))
    emit("core.matches", value(last["matches"], "count"))
    emit("core.comparisons_per_s", value(last["comparisons"] / progressive_s, "1/s"))
    emit(
        "core.match_yield",
        value(last["matches"] / max(last["comparisons"], 1), "ratio"),
    )
    if run.name == "batch-center":
        observability_overhead(run, state)


def observability_overhead(run: Run, state: JobState) -> None:
    """``Pipeline.run`` with the repo's own tracing on, over the same run off."""
    def once(enabled: bool):
        obs = Observability() if enabled else None
        _, took = timed(
            lambda: Pipeline.run(state.spec, state.kb1, state.kb2, state.gold, obs=obs)
        )
        return took, obs.span_count if enabled else 0

    pairs = [(once(True), once(False)) for _ in range(3)]
    on = statistics.median(pair[0][0] for pair in pairs)
    off = statistics.median(pair[1][0] for pair in pairs)
    run.emit("obs.overhead_ratio", value(on / off, "ratio"))
    run.emit("obs.spans", value(pairs[0][0][1], "count"))


# -- event workloads: stream-mixed, stream-durable, serve-2shard ----------------


def make_events(data, seed: int, delete_every: int | None) -> list[tuple]:
    """Arrivals in seeded order; a query every 4th insert, a delete every 7th.

    The harness owns this generator (it does not import the scenarios of
    ``repro.stream.workload``), so a change to them cannot move the load.
    """
    rng = random.Random(seed)
    arrivals = [(d, 0) for d in data.kb1] + [(d, 1) for d in data.kb2]
    rng.shuffle(arrivals)
    events, live = [], []
    for count, arrival in enumerate(arrivals, 1):
        events.append(("insert", *arrival))
        live.append(arrival)
        if count % 4 == 0:
            events.append(("query", *live[rng.randrange(len(live))]))
        if delete_every and count % delete_every == 0:
            events.append(("delete", *live.pop(rng.randrange(len(live)))))
    return events


def live_corpus_edges(data, events):
    """Sequential pruned edges over what the replay leaves alive."""
    deleted = {d.uri for kind, d, _ in events if kind == "delete"}
    survivors = []
    for collection in (data.kb1, data.kb2):
        kept = EntityCollection(name=collection.name)
        for description in collection:
            if description.uri not in deleted:
                kept.add(description)
        survivors.append(kept)
    report = Pipeline(PipelineSpec.from_dict(SPEC)).execute(*survivors, match=False)
    return report.edges


class _TimedHandle:
    """An append handle whose writes are timed and counted by its owner."""

    def __init__(self, inner, owner) -> None:
        self.inner, self.owner = inner, owner

    def write(self, payload: bytes) -> int:
        start = time.perf_counter()
        written = self.inner.write(payload)
        self.owner.write_s += time.perf_counter() - start
        self.owner.wal_bytes += len(payload)
        return written

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimingFiles(OsFiles):
    """``OsFiles`` that counts and times what the durability layer does.

    Passed through the public ``files=`` seam of ``Durability``.
    """

    def __init__(self) -> None:
        self.write_s = self.fsync_s = 0.0
        self.wal_bytes = self.fsyncs = 0
        self.snapshots = self.snapshot_bytes = 0

    def open_append(self, path: str):
        return _TimedHandle(super().open_append(path), self)

    def write_bytes(self, path: str, payload: bytes) -> None:
        start = time.perf_counter()
        super().write_bytes(path, payload)
        self.write_s += time.perf_counter() - start
        self.snapshots += 1
        self.snapshot_bytes += len(payload)

    def fsync(self, handle) -> None:
        start = time.perf_counter()
        super().fsync(handle.inner)
        self.fsync_s += time.perf_counter() - start
        self.fsyncs += 1


@dataclass
class Replay:
    """What one closed-loop pass over the events produced."""

    begin: float
    wall_s: float
    #: (kind, start, end) per event
    records: list
    #: sums of ``StreamQueryResult.latency`` phases and per-query counts
    query: dict

    def latencies_ms(self, kind: str) -> list[float]:
        return [(end - start) * 1e3 for k, start, end in self.records if k == kind]

    def busy_s(self, kind: str) -> float:
        return sum(end - start for k, start, end in self.records if k == kind)


def replay(run: Run, events, target, resolve_on_arrival: bool) -> Replay:
    """Send every event as soon as the previous one returned (one client).

    *target* is a ``StreamResolver`` or a ``Router``; with
    *resolve_on_arrival* an insert is a resolve that ingests first.
    """
    records = []
    query = dict.fromkeys(
        ("ingest_s", "reconcile_s", "candidates_s", "weigh_s", "match_s"), 0.0
    )
    query.update(candidates=0, comparisons=0, count=0)
    begin = time.perf_counter()
    for kind, description, source in events:
        start = time.perf_counter()
        try:
            if kind == "delete":
                target.delete(description.uri)
                result = None
            elif kind == "insert" and not resolve_on_arrival:
                target.ingest(description, source)
                result = None
            else:
                result = target.resolve(
                    description, source, scheme="ARCS", pruner="CNP",
                    ingest=kind == "insert",
                )
        except Exception as error:  # a failed operation is counted, not fatal
            run.ledger.fail(f"{run.name}: {kind} raised {error!r}")
            continue
        records.append((kind, start, time.perf_counter()))
        if result is not None:
            if getattr(result, "degraded", False):
                run.ledger.fail(f"{run.name}: degraded answer for {description.uri}")
            for phase, seconds in result.latency.items():
                if phase in query:
                    query[phase] += seconds
            query["candidates"] += result.candidates
            query["comparisons"] += result.comparisons
            query["count"] += 1
    wall = time.perf_counter() - begin
    run.ledger.ops(len(records))
    return Replay(begin, wall, records, query)


def record_spans(run: Run, index: int, passed: Replay, prefix: str) -> None:
    """Turn a pass's per-event records into spans under one ``replay`` root."""
    tracer = run.tracer
    tracer.run = index
    root = len(tracer.spans)
    tracer.add("replay", passed.begin, passed.begin + passed.wall_s, None)
    for kind, start, end in passed.records:
        tracer.add(f"{prefix}.{kind}", start, end, root)


def emit_latencies(run: Run, passes: list[Replay], kinds=("insert", "query")) -> None:
    """p50 and p95 per pass, reported as the median over passes."""
    for kind in kinds:
        per_pass = [p.latencies_ms(kind) for p in passes]
        for label, fraction in (("p50", 0.5), ("p95", 0.95)):
            entry = summarize([percentile(v, fraction) for v in per_pass], "ms")
            entry["samples_per_pass"] = len(per_pass[0])
            run.emit(f"e2e.{kind}_{label}_ms", entry)


def emit_busy(run: Run, passes: list[Replay], prefix: str, kinds) -> None:
    for kind in kinds:
        run.emit(
            f"{prefix}.{kind}_busy_s", summarize([p.busy_s(kind) for p in passes], "s")
        )


def emit_stream_layers(run: Run, passes: list[Replay]) -> None:
    emit = run.emit
    emit_busy(run, passes, "stream", ("insert", "query", "delete"))
    last = passes[-1]
    for kind, plural in (("insert", "inserts"), ("query", "queries"), ("delete", "deletes")):
        emit(f"stream.{plural}", value(len(last.latencies_ms(kind)), "count"))
    for phase in ("ingest", "candidates", "weigh", "match"):
        emit(
            f"stream.q_{phase}_s",
            summarize([p.query[f"{phase}_s"] for p in passes], "s"),
        )
    emit("stream.reconcile_s", summarize([p.query["reconcile_s"] for p in passes], "s"))
    queries = max(last.query["count"], 1)
    emit("stream.candidates_per_query", value(last.query["candidates"] / queries, "count"))
    emit("stream.comparisons_per_query", value(last.query["comparisons"] / queries, "count"))
    growth = []
    for passed in passes:
        inserts = passed.latencies_ms("insert")
        quarter = max(len(inserts) // 4, 1)
        growth.append(
            statistics.median(inserts[-quarter:]) / statistics.median(inserts[:quarter])
        )
    emit("stream.insert_growth", summarize(growth, "ratio"))


@dataclass
class StreamState:
    events: list
    #: sequential pruned edges over the final live corpus
    reference: list


def setup_stream(run: Run) -> StreamState:
    data = run.dataset()
    events = make_events(data, run.seed, delete_every=7)
    return StreamState(events, live_corpus_edges(data, events))


def new_resolver(durability=None):
    return StreamResolver(
        clean_clean=True, processed_view=True, threshold=THRESHOLD,
        durability=durability,
    )


def check_stream(run: Run, resolver, reference, what: str) -> float:
    edges, took = timed(lambda: resolver.pruned_edges("ARCS", "CNP"))
    run.ledger.check(
        edges == reference,
        f"{run.name}: {what} edges differ from the batch edges of the live corpus",
    )
    return took


def run_stream_workload(run: Run) -> None:
    state = median_setup(run, lambda: setup_stream(run))
    durable = run.name == "stream-durable"
    # Two in-memory passes: a warm-up, then the baseline that stream-durable's
    # overhead ratio is taken against (same events, nothing attached).
    for _ in range(2):
        resolver = new_resolver()
        baseline = replay(run, state.events, resolver, False)
    check_stream(run, resolver, state.reference, "in-memory replay")

    passes, traced, resolver, files = stream_passes(run, state, durable)
    walls = emit_walls(run, [(p.wall_s, factor) for p, factor in passes])
    passes = [p for p, _ in passes]
    run.emit("events_per_s", summarize([len(state.events) / w for w in walls], "1/s"))
    emit_latencies(run, passes)
    if durable:
        recover_and_check(run, resolver)
    run.emit("peak_rss_mib", value(peak_rss_mib(), "MiB"))
    if run.traced:
        traced_wall = statistics.median(p.wall_s * factor for p, factor in traced)
        traced = [p for p, _ in traced]
        run.emit(
            "bench.trace_overhead_ratio",
            value(traced_wall / statistics.median(walls), "ratio"),
        )
        run.emit("api.unattributed_share", value(run.tracer.unattributed_share("replay"), "ratio"))
        emit_stream_layers(run, traced)
        run.emit("stream.reconciles", value(resolver.view.reconcile_count, "count"))
        run.emit("stream.bridge_snapshot_s", summarize(run.tracer.per_run("stream.bridge_snapshot"), "s"))
        if durable:
            run.emit(
                "durability.overhead_ratio",
                value(
                    statistics.median(p.busy_s("insert") for p in traced)
                    / baseline.busy_s("insert"),
                    "ratio",
                ),
            )
            for key, unit in (
                ("wal_bytes", "B"), ("fsyncs", "count"), ("fsync_s", "s"),
                ("write_s", "s"), ("snapshots", "count"), ("snapshot_bytes", "B"),
            ):
                run.emit(f"durability.{key}", value(getattr(files, key), unit))
    if durable:
        shutil.rmtree(os.path.join(run.tmp, "wal"), ignore_errors=True)


def stream_passes(run: Run, state: StreamState, durable: bool):
    """Closed-loop passes for ``--seconds``; each starts from empty.

    Returns the untraced and the traced passes, the last pass's resolver
    and the last traced pass's ``TimingFiles``.
    """
    wal_root = os.path.join(run.tmp, "wal")
    files = resolver = None

    def one(index: int, traced: bool) -> Replay:
        # Rebinding ``resolver`` frees the previous pass's state, so memory
        # does not grow with the number of passes the budget allows.
        nonlocal files, resolver
        durability = None
        if durable:
            # Only the last pass's directory is needed (for recovery).
            shutil.rmtree(wal_root, ignore_errors=True)
            timing = TimingFiles() if traced else None
            files = timing or files
            durability = Durability(
                os.path.join(wal_root, str(index)),
                fsync_every=1,
                snapshot_every=max(20, round(SNAPSHOT_EVERY * min(run.scale, 1.0))),
                files=timing,
            )
        resolver = new_resolver(durability)
        passed = replay(run, state.events, resolver, False)
        resolver.close()
        if traced:
            record_spans(run, index, passed, "stream")
            with run.tracer.span("stream.bridge_snapshot"):
                check_stream(run, resolver, state.reference, "replayed")
        else:
            check_stream(run, resolver, state.reference, "replayed")
        return passed

    passes, traced = run.repeats(3, lambda i: one(i, False), lambda i: one(i, True))
    return passes, traced, resolver, files


def recover_and_check(run: Run, resolver) -> None:
    """``recover()`` on the finished directory: timed, then compared."""
    directory = resolver.durability.directory
    before = capture_state(
        resolver.store, resolver.index, resolver.pairs, resolver.view, resolver.view_pairs
    )
    seconds = []
    for _ in range(RECOVER_REPEATS):
        recovered, took = timed(
            lambda: StreamResolver.recover(directory, threshold=THRESHOLD)
        )
        seconds.append(took)
    after = capture_state(
        recovered.store, recovered.index, recovered.pairs, recovered.view,
        recovered.view_pairs,
    )
    run.ledger.check(
        canonical_state(after) == canonical_state(before),
        f"{run.name}: recovered state differs from the pre-shutdown state",
    )
    report = recovered.recovery
    wal_size = os.path.getsize(os.path.join(directory, "wal.log"))
    run.emit("e2e.recover_s", summarize(seconds, "s"))
    run.emit("e2e.wal_bytes_per_event", value(wal_size / report.wal_records, "B"))
    run.emit("durability.wal_records", value(report.wal_records, "count"))
    run.emit("durability.replayed_events", value(report.replayed_events, "count"))
    run.emit(
        "durability.replayed_share",
        value(report.replayed_events / report.wal_records, "ratio"),
    )


@dataclass
class ServeState:
    events: list
    router: object
    spawn_s: float
    #: the same events through one in-process ``StreamResolver``
    inprocess: Replay


def new_router():
    return Router(
        SHARDS, clean_clean=True, threshold=THRESHOLD, scheme="ARCS", pruner="CNP"
    )


def setup_serve(run: Run) -> ServeState:
    data = run.dataset()
    events = make_events(data, run.seed, delete_every=None)
    inprocess = replay(
        run, events, StreamResolver(clean_clean=True, threshold=THRESHOLD), True
    )
    router, spawn_s = timed(new_router)
    return ServeState(events, router, spawn_s, inprocess)


def open_loop(run: Run, events, router) -> tuple[dict, list[float], list]:
    """Phase A: arrivals on a fixed schedule, latency from the due time."""
    latencies = {"insert": [], "query": []}
    lateness, records = [], []
    begin = time.perf_counter()
    for index, (kind, description, source) in enumerate(events):
        due = index / OPEN_LOOP_EPS
        while True:
            now = time.perf_counter() - begin
            if now >= due:
                break
            router.pump()
            time.sleep(min(due - now, 0.002))
        start = time.perf_counter()
        lateness.append((start - begin - due) * 1e3)
        try:
            result = router.resolve(description, source, ingest=kind == "insert")
        except Exception as error:
            run.ledger.fail(f"{run.name}: routed {kind} raised {error!r}")
            continue
        end = time.perf_counter()
        if result.degraded:
            run.ledger.fail(f"{run.name}: degraded answer for {description.uri}")
        latencies[kind].append((end - begin - due) * 1e3)
        records.append((kind, start, end))
    run.ledger.ops(len(records))
    return latencies, lateness, records


def run_serve_workload(run: Run) -> None:
    state = median_setup(run, lambda: setup_serve(run), lambda s: s.router.close())
    router, emit = state.router, run.emit

    # Phase A, open loop, may take 35 % of the time; at scale 1 that is
    # every event.  Its records become spans in a traced run.
    arrivals = state.events[: max(20, int(OPEN_LOOP_EPS * 0.35 * run.seconds))]
    latencies, lateness, records = open_loop(run, arrivals, router)
    queries = [(d, s) for kind, d, s in state.events if kind == "query"]
    report = verify_equivalence(router, queries[:VERIFY_QUERIES])
    run.ledger.check(
        report.ok, f"{run.name}: verify_equivalence: {report.mismatches[:3]}"
    )
    stats = router.stats
    router.close()
    for kind, samples in latencies.items():
        for label, fraction in (("p50", 0.5), ("p95", 0.95)):
            entry = value(percentile(samples, fraction), "ms")
            entry["n"] = len(samples)
            emit(f"e2e.{kind}_{label}_ms", entry)

    # Phase B, closed loop, each pass on a fresh tier.
    def closed(index: int, traced: bool) -> Replay:
        with new_router() as fresh:
            passed = replay(run, state.events, fresh, True)
        if traced:
            record_spans(run, index, passed, "serving")
        return passed

    passes, traced = run.repeats(
        3, lambda i: closed(i, False), lambda i: closed(i, True), SHARDS
    )
    walls = emit_walls(run, [(p.wall_s, factor) for p, factor in passes])
    capacity = [len(state.events) / w for w in walls]
    emit("events_per_s", summarize(capacity, "1/s"))
    emit("peak_rss_mib", value(peak_rss_mib(), "MiB"))
    if not run.traced:
        return
    run.tracer.run = -1
    for kind, start, end in records:
        run.tracer.add(f"serving.open_loop.{kind}", start, end, None)
    routed = statistics.median(p.wall_s * factor for p, factor in traced)
    traced = [p for p, _ in traced]
    emit("bench.trace_overhead_ratio", value(routed / statistics.median(walls), "ratio"))
    emit("api.unattributed_share", value(run.tracer.unattributed_share("replay"), "ratio"))
    emit_busy(run, traced, "serving", ("insert", "query"))
    emit("serving.spawn_s", value(state.spawn_s, "s"))
    emit("serving.lateness_p95_ms", value(percentile(lateness, 0.95), "ms"))
    emit(
        "serving.routed_over_inprocess",
        value(
            statistics.median(percentile(p.latencies_ms("query"), 0.5) for p in traced)
            / percentile(state.inprocess.latencies_ms("query"), 0.5),
            "ratio",
        ),
    )
    for key in ("retries", "hedges", "hedge_wins", "degraded"):
        emit(f"serving.{key}", value(getattr(stats, key), "count"))
    emit(
        "serving.events_per_s_per_process",
        value(statistics.median(capacity) / (SHARDS + 1), "1/s"),
    )
    emit("serving.shard_peak_rss_mib", value(peak_rss_mib(resource.RUSAGE_CHILDREN), "MiB"))


WORKLOADS = {
    "batch-center": run_job_workload,
    "batch-periphery": run_job_workload,
    "mapreduce-center": run_job_workload,
    "sql-center": run_job_workload,
    "stream-mixed": run_stream_workload,
    "stream-durable": run_stream_workload,
    "serve-2shard": run_serve_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    run = Run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.tmp
    )
    WORKLOADS[run.name](run)
    for path in leftover_files(run.tmp):
        run.ledger.fail(f"left behind in the temp directory: {path}")
    if run.traced and args.trace_file:
        run.tracer.write(args.trace_file)
        run.emit("bench.spans", value(len(run.tracer.spans), "count"))
    run.emit("bench.machine_speed", summarize(run.speed.speeds, "ratio"))
    ledger = run.ledger
    print(
        json.dumps(
            {
                "workload": run.name,
                "entities": run.entities,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "failures": ledger.failures[:20],
                "metrics": run.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
