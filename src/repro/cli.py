"""Command-line interface to the MinoanER platform.

Every resolution subcommand is a thin shell over the declarative
facade (:mod:`repro.api`): flags assemble a
:class:`~repro.api.spec.PipelineSpec`, :meth:`~repro.api.runner.
Pipeline.run` executes it, and the tables render the unified
:class:`~repro.api.runner.RunReport`.  Component names (blockers,
weighting schemes, pruners, benefit models, scenarios) are resolved
dynamically from the :data:`~repro.api.registry.registry`, so plugins
registered before ``main()`` appear in ``--help`` and error messages
automatically.

Subcommands::

    python -m repro stats      KB.nt [KB2.nt]        # shape diagnosis
    python -m repro block      --kb1 A.nt --kb2 B.nt [--gold G.csv]
    python -m repro resolve    --kb1 A.nt [--kb2 B.nt] [--gold G.csv]
                               [--budget N] [--benefit MODEL] [--out M.csv]
    python -m repro run        --spec SPEC.json [--kb1 A.nt ...]
                               [--backend sequential|mapreduce|stream|sql]
                               [--engine sqlite|duckdb] [--db-path FILE]
    python -m repro sql        explain --spec SPEC.json [--kb1 A.nt ...]
    python -m repro stream     --kb1 A.nt [--kb2 B.nt]
                               [--scenario uniform|bursty|skewed]
                               [--processed-view]
                               [--reconcile-interval adaptive|K[,K2,...]]
    python -m repro mapreduce  --kb1 A.nt [--kb2 B.nt] [--workers 1 2 4]
                               [--executor serial|process|both]
    python -m repro components [--kind KIND]         # registry listing
    python -m repro synthesize --entities N --profile center|periphery
                               --out-dir DIR
    python -m repro obs        report DIR            # render telemetry

``run``, ``stream`` and ``mapreduce`` accept ``--trace-dir DIR`` /
``--metrics`` to capture span traces (``DIR/trace.jsonl``) and the
metric exposition (``DIR/metrics.txt``); ``repro obs report DIR``
renders the per-stage time-attribution tree and histogram tables.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Sequence

from repro.analysis import interlinking_density, match_regime, vocabulary_overlap
from repro.api import Pipeline, PipelineSpec, registry
from repro.api.spec import BACKEND_KINDS, SQL_ENGINES
from repro.datasets.gold import GoldStandard, load_gold_csv, save_gold_csv
from repro.datasets.synthetic import (
    CENTER_PROFILE,
    PERIPHERY_PROFILE,
    SyntheticConfig,
    synthesize_pair,
)
from repro.evaluation.metrics import evaluate_blocks
from repro.evaluation.reporting import format_table
from repro.model.collection import EntityCollection
from repro.rdf.loader import load_collection
from repro.rdf.ntriples import Triple, serialize_ntriples


def _positive_int(value: str) -> int:
    """Argparse type: an integer >= 1 (worker counts)."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (run/stream/mapreduce)."""
    parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="enable observability and write DIR/trace.jsonl (span "
        "trace) plus DIR/metrics.txt (metric exposition); render with "
        "`repro obs report DIR`",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="enable observability and print the metric exposition "
        "after the run (combines with --trace-dir)",
    )


def _make_obs(args: argparse.Namespace):
    """--trace-dir/--metrics → an :class:`Observability`, else None."""
    if not (args.trace_dir or args.metrics):
        return None
    from repro.obs import Observability

    return Observability(directory=args.trace_dir)


def _finish_obs(obs, args: argparse.Namespace) -> None:
    """Final telemetry export: close sinks, honour --metrics."""
    if obs is None:
        return
    obs.close()
    if args.metrics:
        print()
        print(obs.metrics_text().rstrip())
    if args.trace_dir:
        print(f"\ntelemetry written to {args.trace_dir} ({obs.span_count} spans)")


def _add_component_flags(parser: argparse.ArgumentParser) -> None:
    """The shared weighting/pruning flags, choices from the registry."""
    parser.add_argument(
        "--weighting", choices=registry.names("weighting"), default="ARCS",
        help="meta-blocking weighting scheme",
    )
    parser.add_argument(
        "--pruning", choices=registry.names("pruner"), default="CNP",
        help="meta-blocking pruning scheme",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MinoanER: progressive entity resolution in the Web of Data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="collection statistics and LOD-regime analysis")
    stats.add_argument("kb1", help="first KB (.nt or .ttl)")
    stats.add_argument("kb2", nargs="?", help="optional second KB")
    stats.add_argument("--gold", help="gold CSV (enables match-regime analysis)")

    block = sub.add_parser("block", help="run and evaluate the blocking stage")
    block.add_argument("--kb1", required=True)
    block.add_argument("--kb2")
    block.add_argument("--gold", help="gold CSV for PC/PQ/RR")
    block.add_argument(
        "--method", choices=registry.names("blocker"), default="token",
        help="blocking method",
    )

    resolve = sub.add_parser("resolve", help="run the full MinoanER pipeline")
    resolve.add_argument("--kb1", required=True)
    resolve.add_argument("--kb2")
    resolve.add_argument("--gold", help="gold CSV (evaluation only)")
    resolve.add_argument("--budget", type=int, help="comparison budget (default unlimited)")
    resolve.add_argument(
        "--benefit", choices=registry.names("benefit"), default="quantity",
        help="benefit model targeted by scheduling",
    )
    _add_component_flags(resolve)
    resolve.add_argument("--threshold", type=float, default=0.4, help="match threshold")
    resolve.add_argument(
        "--no-update", action="store_true", help="disable the update phase"
    )
    resolve.add_argument("--out", help="write matched pairs to this CSV")

    run = sub.add_parser(
        "run", help="execute a declarative PipelineSpec JSON on any backend"
    )
    run.add_argument("--spec", required=True, help="PipelineSpec JSON file")
    run.add_argument("--kb1", help="override the spec's data node")
    run.add_argument("--kb2")
    run.add_argument("--gold")
    run.add_argument(
        "--backend", metavar="KIND",
        help="override the spec's backend kind "
        f"({'|'.join(BACKEND_KINDS)})",
    )
    run.add_argument(
        "--engine", metavar="ENGINE",
        help="sql backend only: override the relational engine "
        f"({'|'.join(SQL_ENGINES)})",
    )
    run.add_argument(
        "--db-path", metavar="FILE",
        help="sql backend only: database file (default in-memory); "
        "a disk path runs the pipeline out of core",
    )
    run.add_argument("--out", help="write matched pairs to this CSV")
    _add_obs_flags(run)

    sql = sub.add_parser(
        "sql", help="inspect the relational (SQL-compiled) backend"
    )
    sql_sub = sql.add_subparsers(dest="sql_command", required=True)
    explain = sql_sub.add_parser(
        "explain",
        help="compile a spec to SQL and print the per-stage query plans",
    )
    explain.add_argument("--spec", required=True, help="PipelineSpec JSON file")
    explain.add_argument("--kb1", help="override the spec's data node")
    explain.add_argument("--kb2")
    explain.add_argument(
        "--engine", metavar="ENGINE",
        help=f"override the spec's sql engine ({'|'.join(SQL_ENGINES)})",
    )

    components = sub.add_parser(
        "components", help="list every registered component and its parameters"
    )
    components.add_argument(
        "--kind", choices=tuple(registry.kinds()) + ("backends",),
        help="restrict to one component kind (or the backends section)",
    )

    stream = sub.add_parser(
        "stream", help="replay a streaming arrival+query workload"
    )
    stream.add_argument(
        "--kb1", help="required except in recover-only mode (--recover-dir alone)"
    )
    stream.add_argument("--kb2")
    stream.add_argument(
        "--scenario", choices=registry.names("scenario"), default="uniform",
        help="arrival/query shape replayed against the streaming resolver",
    )
    stream.add_argument(
        "--weighting", choices=registry.names("weighting"), default="ARCS",
        help="weighting scheme scoring query candidates",
    )
    stream.add_argument(
        "--pruning", choices=registry.names("pruner") + ["none"], default="CNP",
        help="local pruning of each query's candidate neighbourhood "
        "(reciprocal variants degrade to their base algorithm per query)",
    )
    stream.add_argument("--threshold", type=float, default=0.4, help="match threshold")
    stream.add_argument("--budget", type=int, help="per-query comparison cap")
    stream.add_argument("--seed", type=int, default=17)
    stream.add_argument(
        "--processed-view", action="store_true",
        help="serve queries from the incrementally-maintained processed "
        "(purged+filtered) view instead of the raw index",
    )
    stream.add_argument(
        "--reconcile-interval", default=None,
        help="processed-view reconcile cadence in inserts: 'adaptive' "
        "(the default), an integer, or a comma-separated sweep (each "
        "value replays the workload against a fresh resolver); implies "
        "--processed-view",
    )
    stream.add_argument(
        "--durability-dir",
        help="write-ahead log + snapshot directory: the replay becomes "
        "crash-recoverable (see --recover-dir)",
    )
    stream.add_argument(
        "--snapshot-every", type=_positive_int, default=200,
        help="snapshot cadence in WAL records (default 200; used with "
        "--durability-dir or --crash-at)",
    )
    stream.add_argument(
        "--fsync-every", type=_positive_int, default=1,
        help="WAL fsync batching: sync every N appends (default 1 = "
        "durable per event)",
    )
    stream.add_argument(
        "--crash-at", type=_positive_int, metavar="N",
        help="fault-injection harness: replay the first N events durably "
        "into --recover-dir, die without closing the WAL, then recover "
        "and verify the state equals an uninterrupted replay",
    )
    stream.add_argument(
        "--recover-dir",
        help="durability directory to recover from; with --crash-at it "
        "hosts the crash harness, alone it prints the recovered state "
        "summary (no --kb1 needed)",
    )
    _add_obs_flags(stream)

    serve = sub.add_parser(
        "serve",
        help="drive a sharded serving tier under open-loop load with "
        "optional injected faults",
    )
    serve.add_argument("--kb1", required=True)
    serve.add_argument("--kb2")
    serve.add_argument(
        "--shards", type=_positive_int, default=2,
        help="worker process count == candidate partition count",
    )
    serve.add_argument(
        "--scenario", choices=registry.names("scenario"), default="uniform",
        help="arrival/query shape driven through the tier",
    )
    serve.add_argument(
        "--weighting", choices=registry.names("weighting"), default="ARCS",
    )
    serve.add_argument(
        "--pruning", choices=registry.names("pruner") + ["none"], default="CNP",
    )
    serve.add_argument("--threshold", type=float, default=0.4)
    serve.add_argument("--budget", type=int, help="per-query comparison cap")
    serve.add_argument("--seed", type=int, default=17)
    serve.add_argument(
        "--rate", type=float, default=200.0,
        help="open-loop arrival rate in events/s (latency is measured "
        "from the scheduled arrival — coordinated-omission corrected)",
    )
    serve.add_argument(
        "--ramp", type=float, default=0.0,
        help="ramp-up seconds: the rate grows linearly to --rate",
    )
    serve.add_argument(
        "--max-events", type=_positive_int, default=None,
        help="truncate the scenario to its first N events",
    )
    serve.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        help="declarative fault, repeatable: kill:1@t=5, kill:1@e=120, "
        "stall:0@t=2:dur=0.8, freeze:0@t=3, torn:1@spawn:budget=4096",
    )
    serve.add_argument(
        "--durability-root",
        help="per-shard WAL/snapshot directories under this root: "
        "respawned shards recover from disk before the re-drive",
    )
    serve.add_argument(
        "--no-failover", action="store_true",
        help="do not reroute a dead shard's partitions (degraded study)",
    )
    serve.add_argument(
        "--no-respawn", action="store_true",
        help="leave dead shards dead (degraded study)",
    )
    serve.add_argument(
        "--heartbeat-deadline", type=float, default=1.0,
        help="seconds of heartbeat silence before a shard is declared "
        "stuck and respawned",
    )
    serve.add_argument(
        "--verify", type=int, default=25, metavar="N",
        help="after the run, check N sampled queries for bit-identity "
        "against a replayed single-store oracle (0 = skip)",
    )
    _add_obs_flags(serve)

    mapreduce = sub.add_parser(
        "mapreduce", help="parallel meta-blocking worker/executor sweep"
    )
    mapreduce.add_argument("--kb1", required=True)
    mapreduce.add_argument("--kb2")
    _add_component_flags(mapreduce)
    mapreduce.add_argument(
        "--workers", type=_positive_int, nargs="+", default=[1, 2, 4],
        help="worker counts to sweep (each >= 1)",
    )
    mapreduce.add_argument(
        "--executor", choices=("serial", "process", "both"), default="both",
        help="serial simulates the cluster; process measures real speedup",
    )
    _add_obs_flags(mapreduce)

    obs = sub.add_parser(
        "obs", help="inspect telemetry directories written by --trace-dir"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="per-stage time-attribution tree + histogram/counter tables",
    )
    obs_report.add_argument(
        "directory", help="telemetry directory (holds trace.jsonl)"
    )

    synthesize = sub.add_parser("synthesize", help="generate a synthetic workload")
    synthesize.add_argument("--entities", type=int, default=300)
    synthesize.add_argument("--overlap", type=float, default=0.7)
    synthesize.add_argument(
        "--regime", choices=("center", "periphery"), default="center",
        help="similarity regime of the generated pair",
    )
    synthesize.add_argument("--seed", type=int, default=42)
    synthesize.add_argument("--out-dir", required=True)

    return parser


# -- command implementations -------------------------------------------------


class _InputError(Exception):
    """A --kb1/--kb2 file could not be loaded; ``main`` turns it into exit 2."""


def _load(path: str) -> EntityCollection:
    try:
        return load_collection(path)
    except (OSError, ValueError) as exc:
        # ValueError: NTriplesParseError, an unsupported extension, bad UTF-8
        raise _InputError(f"cannot load {path}: {exc}") from exc


def _maybe_gold(path: str | None) -> GoldStandard | None:
    return load_gold_csv(path) if path else None


def _print_report(report, out_path: str | None = None) -> None:
    """The unified RunReport rendering shared by resolve/run."""
    print(
        format_table(
            [dict(stage=k, value=v) for k, v in report.summary().items()],
            title="Pipeline summary",
            first_column="stage",
        )
    )
    if report.match_quality is not None:
        print()
        print(format_table([report.match_quality.as_row()], title="Matching quality"))
    if report.workload is not None:
        print()
        print(
            format_table(
                report.workload.summary_rows(),
                title=f"Streaming replay: {report.backend.get('scenario', '?')}",
                first_column="metric",
            )
        )
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["uri1", "uri2"])
            for left, right in sorted(report.matched_pairs()):
                writer.writerow([left, right])
        print(f"\nmatches written to {out_path}")


def cmd_stats(args: argparse.Namespace) -> int:
    kb1 = _load(args.kb1)
    rows = [dict(metric=k, value=v) for k, v in kb1.statistics().as_rows()]
    rows.append(dict(metric="interlinking density", value=f"{interlinking_density(kb1):.3f}"))
    print(format_table(rows, title=f"Statistics: {kb1.name}", first_column="metric"))
    if args.kb2:
        kb2 = _load(args.kb2)
        rows = [dict(metric=k, value=v) for k, v in kb2.statistics().as_rows()]
        rows.append(
            dict(metric="interlinking density", value=f"{interlinking_density(kb2):.3f}")
        )
        print()
        print(format_table(rows, title=f"Statistics: {kb2.name}", first_column="metric"))
        overlap = vocabulary_overlap(kb1, kb2)
        print()
        print(
            format_table(
                [
                    dict(metric="shared properties", value=str(overlap.shared_properties)),
                    dict(metric="vocabulary Jaccard", value=f"{overlap.jaccard:.3f}"),
                    dict(
                        metric="proprietary fraction",
                        value=f"{overlap.proprietary_fraction:.3f}",
                    ),
                ],
                title="Vocabulary overlap",
                first_column="metric",
            )
        )
        if args.gold:
            gold = load_gold_csv(args.gold)
            regime = match_regime(kb1, kb2, gold)
            print()
            print(
                format_table(
                    [
                        dict(metric="gold matches", value=str(regime.pair_count)),
                        dict(metric="mean match Jaccard", value=f"{regime.mean_jaccard:.3f}"),
                        dict(
                            metric="low-evidence matches",
                            value=f"{regime.low_evidence_pairs}/{regime.pair_count}",
                        ),
                        dict(metric="regime", value=regime.regime),
                    ],
                    title="Match-similarity regime",
                    first_column="metric",
                )
            )
    return 0


def cmd_block(args: argparse.Namespace) -> int:
    kb1 = _load(args.kb1)
    kb2 = _load(args.kb2) if args.kb2 else None
    blocker = registry.create("blocker", args.method)
    blocks = blocker.build(kb1, kb2)
    gold = _maybe_gold(args.gold)
    if gold is not None:
        quality = evaluate_blocks(
            blocks, gold, len(kb1), len(kb2) if kb2 is not None else None
        )
        row = {"method": blocker.name}
        row.update(quality.as_row())
        print(format_table([row], title="Blocking quality", first_column="method"))
    else:
        print(
            format_table(
                [
                    {
                        "method": blocker.name,
                        "blocks": str(len(blocks)),
                        "comparisons": str(blocks.total_comparisons()),
                        "entities": str(blocks.entity_count()),
                    }
                ],
                title="Blocking summary",
                first_column="method",
            )
        )
    return 0


def _spec_from_resolve_args(args: argparse.Namespace) -> PipelineSpec:
    """Flags → PipelineSpec for the sequential resolve subcommand."""
    return PipelineSpec.from_dict(
        {
            "weighting": args.weighting,
            "pruning": args.pruning,
            "matching": {
                "matcher": {
                    "name": "threshold",
                    "params": {"threshold": args.threshold},
                },
                "budget": args.budget,
                "benefit": args.benefit,
                "update_phase": not args.no_update,
            },
        }
    )


def cmd_resolve(args: argparse.Namespace) -> int:
    kb1 = _load(args.kb1)
    kb2 = _load(args.kb2) if args.kb2 else None
    gold = _maybe_gold(args.gold)
    report = Pipeline.run(_spec_from_resolve_args(args), kb1, kb2, gold=gold)
    _print_report(report, args.out)
    return 0


def _backend_overrides(args: argparse.Namespace) -> dict | None:
    """--backend/--engine/--db-path → ``with_backend`` changes.

    Unknown names are reported here (exit 2, valid list) instead of
    argparse's usage error, mirroring the unknown-component style.
    """
    if getattr(args, "backend", None) and args.backend not in BACKEND_KINDS:
        print(
            f"unknown backend {args.backend!r}; "
            f"choose from: {', '.join(BACKEND_KINDS)}"
        )
        return None
    if getattr(args, "engine", None) and args.engine not in SQL_ENGINES:
        print(
            f"unknown sql engine {args.engine!r}; "
            f"choose from: {', '.join(SQL_ENGINES)}"
        )
        return None
    overrides = {}
    if getattr(args, "backend", None):
        overrides["kind"] = args.backend
    if getattr(args, "engine", None):
        overrides["engine"] = args.engine
    if getattr(args, "db_path", None):
        overrides["db_path"] = args.db_path
    return overrides


def cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.api import SpecError

    overrides = _backend_overrides(args)
    if overrides is None:
        return 2
    try:
        spec = PipelineSpec.load(args.spec)
        if overrides:
            spec = spec.with_backend(**overrides)
    except FileNotFoundError:
        print(f"spec file not found: {args.spec}")
        return 2
    except json.JSONDecodeError as exc:
        print(f"spec file {args.spec} is not valid JSON: {exc}")
        return 2
    except SpecError as exc:
        print(f"invalid spec {args.spec}: {exc}")
        return 2
    kb1 = _load(args.kb1) if args.kb1 else None
    kb2 = _load(args.kb2) if args.kb2 else None
    gold = _maybe_gold(args.gold)
    obs = _make_obs(args)
    try:
        report = Pipeline.run(spec, kb1, kb2, gold=gold, obs=obs)
    except SpecError as exc:
        print(f"cannot run spec: {exc}")
        return 2
    print(f"spec {os.path.basename(args.spec)} → cache key {report.spec_key[:16]}…\n")
    _print_report(report, args.out)
    _finish_obs(obs, args)
    return 0


#: the execution backends with their BackendSpec knobs — not registry
#: components (they have no factory), so ``components`` lists them as
#: their own section
_BACKEND_ROWS = [
    {
        "backend": "sequential",
        "spec knobs": "—",
        "description": "in-process batch pipeline (the reference path)",
    },
    {
        "backend": "mapreduce",
        "spec knobs": "workers, executor",
        "description": "parallel meta-blocking via MapReduce jobs",
    },
    {
        "backend": "stream",
        "spec knobs": "scenario, processed_view, reconcile_every, seed, "
        "query_budget, query_pruner, durability_dir, snapshot_every",
        "description": "workload replay through the streaming resolver",
    },
    {
        "backend": "sql",
        "spec knobs": "engine, db_path, workers",
        "description": "pipeline compiled to SQL (sqlite or DuckDB), "
        "optionally out of core via db_path",
    },
]


def cmd_components(args: argparse.Namespace) -> int:
    if args.kind != "backends":
        rows = registry.describe(args.kind)
        print(
            format_table(
                rows,
                title="Registered components"
                + (f": {args.kind}" if args.kind else ""),
                first_column="kind",
            )
        )
    if args.kind in (None, "backends"):
        if args.kind is None:
            print()
        print(
            format_table(
                _BACKEND_ROWS,
                title="Execution backends (PipelineSpec `backend` node)",
                first_column="backend",
            )
        )
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    """`repro sql explain`: print the compiled plans, stage by stage."""
    import json

    from repro.api import SpecError
    from repro.sqlbackend import SqlBackendError, SqlMetaBlocker, planlint

    overrides = _backend_overrides(args)
    if overrides is None:
        return 2
    overrides["kind"] = "sql"
    try:
        spec = PipelineSpec.load(args.spec).with_backend(**overrides)
    except FileNotFoundError:
        print(f"spec file not found: {args.spec}")
        return 2
    except json.JSONDecodeError as exc:
        print(f"spec file {args.spec} is not valid JSON: {exc}")
        return 2
    except SpecError as exc:
        print(f"invalid spec {args.spec}: {exc}")
        return 2
    kb1 = _load(args.kb1) if args.kb1 else None
    kb2 = _load(args.kb2) if args.kb2 else None
    if kb1 is None:
        if spec.data is None:
            print("no input data: pass --kb1 or give the spec a data node")
            return 2
        kb1, kb2, _ = spec.data.resolve()
    backend = spec.backend
    pipeline = Pipeline(spec)
    blocks = pipeline.blocker.build(kb1, kb2)
    try:
        with SqlMetaBlocker(
            engine=backend.engine,
            db_path=backend.db_path,
            workers=backend.workers,
        ) as blocker:
            blocker.prepare(blocks, pipeline.purging, pipeline.filtering)
            blocker.weight(pipeline.scheme)
            blocker.prune(pipeline.pruner)
            plans = blocker.plans
            stats = dict(blocker.stats)
    except SqlBackendError as exc:
        print(f"cannot compile spec to SQL: {exc}")
        return 2
    print(
        f"spec {os.path.basename(args.spec)} on engine {backend.engine}: "
        f"{stats.get('blocks', 0)} blocks, {stats.get('placements', 0)} "
        f"placements, {stats.get('pairs', 0)} pairs"
    )
    for stage, entries in plans.items():
        print(f"\n== stage: {stage} ({len(entries)} statement(s)) ==")
        for sql_text, plan in entries:
            summary = " ".join(sql_text.split())
            if len(summary) > 100:
                summary = summary[:97] + "..."
            print(f"\n  {summary}")
            for line in planlint.render(plan):
                print(f"    | {line}")
    # the gate: an inner-loop full scan is the quadratic plan
    violations = planlint.lint(plans)
    statements = sum(len(entries) for entries in plans.values())
    print(
        f"\nplan lint: {statements} statement(s), "
        f"{len(violations)} nested full scan(s), "
        f"{len(planlint.automatic(plans))} automatic index(es)"
    )
    for violation in violations:
        print(f"  nested scan: {violation}")
    return 1 if violations else 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    profile = CENTER_PROFILE if args.regime == "center" else PERIPHERY_PROFILE
    config = SyntheticConfig(
        entities=args.entities, overlap=args.overlap, seed=args.seed, profile=profile
    )
    dataset = synthesize_pair(config)
    os.makedirs(args.out_dir, exist_ok=True)

    def write_kb(collection: EntityCollection, filename: str) -> str:
        triples = [
            Triple(d.uri, prop, value, is_literal=not value.startswith("http"))
            for d in collection
            for prop, value in d.pairs()
        ]
        path = os.path.join(args.out_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_ntriples(triples))
        return path

    paths = [
        write_kb(dataset.kb1, "kb1.nt"),
        write_kb(dataset.kb2, "kb2.nt"),
    ]
    gold_path = os.path.join(args.out_dir, "gold.csv")
    save_gold_csv(dataset.gold, gold_path)
    paths.append(gold_path)
    print(
        format_table(
            [
                dict(artifact=os.path.basename(p), path=p)
                for p in paths
            ],
            title=(
                f"Synthesized {args.regime} workload: "
                f"{len(dataset.kb1)}+{len(dataset.kb2)} descriptions, "
                f"{len(dataset.gold.matches)} matches"
            ),
            first_column="artifact",
        )
    )
    return 0


def _stream_recover_only(args: argparse.Namespace) -> int:
    """Rebuild + summarize the state in ``--recover-dir``."""
    from repro.stream.durability import recover

    try:
        result = recover(args.recover_dir)
    except FileNotFoundError as error:
        print(error)
        return 1
    report = result.report
    table = result.pairs if result.view is None else result.view_pairs
    rows = [
        {"metric": "live descriptions", "value": str(len(result.store))},
        {"metric": "blocking keys", "value": str(len(result.index))},
        {"metric": "pairs tracked", "value": str(table.edge_count)},
        {"metric": "WAL records", "value": str(report.wal_records)},
        {"metric": "snapshot LSN", "value": str(report.snapshot_lsn)},
        {"metric": "events replayed", "value": str(report.replayed_events)},
    ]
    if result.view is not None:
        rows.append(
            {"metric": "view threshold", "value": str(result.view.threshold)}
        )
    print(
        format_table(
            rows,
            title=f"Recovered streaming state: {args.recover_dir}",
            first_column="metric",
        )
    )
    return 0


def _stream_crash_harness(args: argparse.Namespace, kb1, kb2) -> int:
    """Kill a durable replay at event N; verify recovery equivalence."""
    from repro.stream.durability import Durability, capture_state, recover
    from repro.stream.resolver import StreamResolver
    from repro.stream.workload import WorkloadDriver

    directory = args.recover_dir
    use_view = args.processed_view or args.reconcile_interval is not None
    pruner = args.pruning
    if pruner.lower().startswith("reciprocal"):
        pruner = pruner[len("Reciprocal"):]

    generator = registry.factory("scenario", args.scenario)
    events = generator(kb1, kb2, seed=args.seed)
    prefix = events[: min(args.crash_at, len(events))]

    def replay(durability=None) -> StreamResolver:
        resolver = StreamResolver(
            clean_clean=kb2 is not None,
            threshold=args.threshold,
            processed_view=use_view,
            durability=durability,
        )
        WorkloadDriver(resolver).run(
            prefix,
            scenario=args.scenario,
            scheme=args.weighting,
            pruner=pruner,
            budget=args.budget,
        )
        return resolver

    durable = replay(
        Durability(
            directory,
            fsync_every=args.fsync_every,
            snapshot_every=args.snapshot_every,
        )
    )
    assert durable.durability is not None
    durable.durability.abandon()  # die without the clean-shutdown sync

    recovered = recover(directory)
    reference = replay()
    equivalent = capture_state(
        recovered.store,
        recovered.index,
        recovered.pairs,
        recovered.view,
        recovered.view_pairs,
    ) == capture_state(
        reference.store,
        reference.index,
        reference.pairs,
        reference.view,
        reference.view_pairs,
    )
    report = recovered.report
    print(
        format_table(
            [
                {"metric": "events replayed before crash", "value": str(len(prefix))},
                {"metric": "WAL records", "value": str(report.wal_records)},
                {"metric": "snapshot LSN", "value": str(report.snapshot_lsn)},
                {"metric": "events replayed at recovery",
                 "value": str(report.replayed_events)},
            ],
            title=f"Crash harness: {args.scenario} @ event {len(prefix)}",
            first_column="metric",
        )
    )
    print(f"recovery equivalence: {'OK' if equivalent else 'FAIL'}")
    return 0 if equivalent else 1


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream.workload import graceful_sigterm

    if args.crash_at is not None and not args.recover_dir:
        print("--crash-at requires --recover-dir (the durability directory)")
        return 1
    if (args.trace_dir or args.metrics) and args.crash_at is not None:
        print("--trace-dir/--metrics need a live replay; the crash harness "
              "replays twice and would interleave their telemetry")
        return 1
    if not args.kb1:
        if args.recover_dir and args.crash_at is None:
            return _stream_recover_only(args)
        print("--kb1 is required (except with --recover-dir alone)")
        return 1

    kb1 = _load(args.kb1)
    kb2 = _load(args.kb2) if args.kb2 else None

    if args.crash_at is not None:
        return _stream_crash_harness(args, kb1, kb2)

    use_view = args.processed_view or args.reconcile_interval is not None
    intervals: list[int | None] = [None]
    if use_view:
        intervals = []
        for token in (args.reconcile_interval or "adaptive").split(","):
            token = token.strip()
            if not token or token == "adaptive":
                intervals.append(None)
                continue
            try:
                parsed = int(token)
            except ValueError:
                print(
                    f"invalid reconcile interval {token!r}: expected "
                    "'adaptive' or an integer >= 1"
                )
                return 1
            if parsed < 1:
                print(f"reconcile interval must be >= 1, got {parsed}")
                return 1
            intervals.append(parsed)

    if args.durability_dir and len(intervals) > 1:
        print("--durability-dir cannot be combined with a reconcile-interval "
              "sweep: each replay would overwrite the same WAL")
        return 1
    if (args.trace_dir or args.metrics) and len(intervals) > 1:
        print("--trace-dir/--metrics cannot be combined with a reconcile-"
              "interval sweep: the replays would interleave one telemetry "
              "stream")
        return 1

    base = PipelineSpec.from_dict(
        {
            "weighting": args.weighting,
            "matching": {
                "matcher": {
                    "name": "threshold",
                    "params": {"threshold": args.threshold},
                },
            },
            "backend": {
                "kind": "stream",
                "scenario": args.scenario,
                "seed": args.seed,
                "query_budget": args.budget,
                "query_pruner": args.pruning,
                "processed_view": use_view,
                "durability_dir": args.durability_dir,
                "snapshot_every": (
                    args.snapshot_every if args.durability_dir else None
                ),
            },
        }
    )
    obs = _make_obs(args)
    interrupted = False
    term_signal = None
    # SIGTERM (systemd stop, Kubernetes eviction, CI cancellation) takes
    # the same graceful path as Ctrl-C: the driver returns the partial
    # stats, the WAL is closed cleanly, and the exit code says which
    # signal it was (143 vs 130).
    with graceful_sigterm() as term:
        for interval in intervals:
            spec = base.with_backend(reconcile_every=interval)
            # Replay-only execution: the workload statistics are the
            # subcommand's product; the batch bridge + matching stages
            # are `repro run --backend stream`'s job.
            report = Pipeline(spec, obs=obs).execute(
                kb1, kb2, stream_bridge=False
            )
            stats = report.workload
            if stats.interrupted and term.name:
                stats.interrupt_signal = term.name
            title = (
                f"Streaming workload: {args.scenario} "
                f"({args.weighting}/{args.pruning})"
            )
            if use_view:
                label = "adaptive" if interval is None else str(interval)
                title += f" — processed view, reconcile interval {label}"
            print(
                format_table(
                    stats.summary_rows(),
                    title=title,
                    first_column="metric",
                )
            )
            if stats.interrupted:
                # Signal mid-replay: the table above covers the executed
                # prefix and the WAL was closed cleanly by the runner.
                interrupted = True
                term_signal = term.name
                break
    # The runner already flushed the telemetry snapshot before closing
    # the WAL, so an interrupted replay reaches this close with its
    # trace and metrics safely on disk.
    _finish_obs(obs, args)
    if interrupted:
        return 143 if term_signal == "SIGTERM" else 130
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import Router, verify_equivalence
    from repro.serving.harness import parse_fault, run_open_loop, spawn_budgets

    try:
        faults = [parse_fault(spec) for spec in args.fault]
    except ValueError as error:
        print(error)
        return 1
    for fault in faults:
        if not 0 <= fault.shard < args.shards:
            print(f"fault {fault.spec()} targets shard {fault.shard}, "
                  f"but the tier has shards 0..{args.shards - 1}")
            return 1
    if any(f.kind == "torn" for f in faults) and not args.durability_root:
        print("torn faults need --durability-root (they tear the WAL)")
        return 1

    kb1 = _load(args.kb1)
    kb2 = _load(args.kb2) if args.kb2 else None
    generator = registry.factory("scenario", args.scenario)
    events = generator(kb1, kb2, seed=args.seed)
    if args.max_events is not None:
        events = events[: args.max_events]

    obs = _make_obs(args)
    router = Router(
        args.shards,
        clean_clean=kb2 is not None,
        threshold=args.threshold,
        scheme=args.weighting,
        pruner=args.pruning,
        budget=args.budget,
        durability_root=args.durability_root,
        failover=not args.no_failover,
        auto_respawn=not args.no_respawn,
        heartbeat_deadline_s=args.heartbeat_deadline,
        crash_budgets=spawn_budgets(faults),
        obs=obs,
        seed=args.seed,
    )
    try:
        report = run_open_loop(
            router, events, rate_eps=args.rate, ramp_s=args.ramp,
            faults=faults,
        )
        print(
            format_table(
                report.period_rows(),
                title=(
                    f"Open-loop load: {args.scenario} @ {args.rate:g} ev/s "
                    f"over {args.shards} shards "
                    f"(achieved {report.achieved_eps:.0f} ev/s)"
                ),
                first_column="period",
            )
        )
        for spec, at in report.fault_log:
            print(f"fault fired: {spec} at t={at:.2f}s")
        for shard_id, event, at in router.supervisor.events:
            rel = at - report.start_monotonic
            print(f"shard {shard_id}: {event} at t={rel:.2f}s")
        print(
            format_table(
                router.stats.summary_rows(),
                title="Serving tier statistics",
                first_column="metric",
            )
        )

        # "After recovery" starts at the last respawned shard's go-live;
        # with no deaths the whole run counts.
        recovered_at = max(
            (at - report.start_monotonic
             for _, event, at in router.supervisor.events if event == "live"),
            default=0.0,
        )
        degraded_after = report.degraded_after(recovered_at)
        print(f"degraded queries: {degraded_after} after recovery "
              f"({report.degraded_queries} total)")

        ok = True
        if args.verify > 0:
            sample = [
                (event.description, event.source)
                for event in events
                if event.kind == "query"
            ][: args.verify] or [
                (event.description, event.source)
                for event in events
                if event.kind == "insert"
            ][: args.verify]
            verdict = verify_equivalence(router, sample)
            print(f"recovery equivalence: {'OK' if verdict.ok else 'FAIL'} "
                  f"({verdict.checked} queries checked)")
            for mismatch in verdict.mismatches[:5]:
                print(f"  mismatch: {mismatch}")
            ok = verdict.ok
    finally:
        router.close()
    _finish_obs(obs, args)
    return 0 if ok else 1


def cmd_mapreduce(args: argparse.Namespace) -> int:
    from repro.mapreduce import ProcessExecutor

    kb1 = _load(args.kb1)
    kb2 = _load(args.kb2) if args.kb2 else None

    executors = (
        ["serial", "process"] if args.executor == "both" else [args.executor]
    )
    if "process" in executors and not ProcessExecutor.available():
        print("process executor unavailable on this platform; using serial only")
        executors = [e for e in executors if e != "process"]
        if not executors:
            return 1

    base = PipelineSpec.from_dict(
        {
            "weighting": args.weighting,
            "pruning": args.pruning,
            "backend": {"kind": "mapreduce"},
        }
    )
    rows = []
    base_wall: dict[str, float] = {}
    obs = _make_obs(args)
    # Blocking is identical across cells: build once, reuse per cell so
    # the sweep times only the meta-blocking stage.
    _, processed_blocks = Pipeline(base, obs=obs).block(kb1, kb2)
    for executor in executors:
        for workers in args.workers:
            spec = base.with_backend(workers=workers, executor=executor)
            report = Pipeline(spec, obs=obs).execute(
                kb1, kb2, match=False, processed_blocks=processed_blocks
            )
            elapsed = report.phase_seconds["metablock_s"]
            metrics = report.job_metrics
            base_wall.setdefault(executor, elapsed)
            rows.append(
                {
                    "executor": executor,
                    "workers": str(workers),
                    "wall ms": f"{elapsed * 1e3:.1f}",
                    "speedup": f"{base_wall[executor] / elapsed:.2f}x",
                    "critical path": str(
                        sum(m.critical_path_cost for m in metrics)
                    ),
                    "shuffle records": str(
                        sum(m.shuffle_records for m in metrics)
                    ),
                    "shuffle KiB": f"{sum(m.shuffle_bytes for m in metrics) / 1024:.0f}",
                    "edges": str(len(report.edges)),
                }
            )
    print(
        format_table(
            rows,
            title=(
                f"MapReduce meta-blocking sweep "
                f"({args.weighting}/{args.pruning}, "
                f"{len(processed_blocks) if processed_blocks is not None else 0} blocks)"
            ),
            first_column="executor",
        )
    )
    print(
        "\nspeedup is measured wall clock vs the first worker count of the "
        "same executor; serial wall time simulates, the process executor "
        "actually parallelizes."
    )
    _finish_obs(obs, args)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import TraceSchemaError
    from repro.obs.report import render_report

    try:
        print(render_report(args.directory))
    except FileNotFoundError as error:
        print(error)
        return 1
    except TraceSchemaError as error:
        print(f"malformed trace in {args.directory}: {error}")
        return 1
    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "block": cmd_block,
    "resolve": cmd_resolve,
    "run": cmd_run,
    "sql": cmd_sql,
    "components": cmd_components,
    "stream": cmd_stream,
    "serve": cmd_serve,
    "mapreduce": cmd_mapreduce,
    "obs": cmd_obs,
    "synthesize": cmd_synthesize,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        print(exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
