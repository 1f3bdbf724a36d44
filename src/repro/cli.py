"""Command-line interface to the MinoanER platform.

One command runs the pipeline: ``repro run`` loads a
:class:`~repro.api.spec.PipelineSpec` JSON, :meth:`~repro.api.runner.
Pipeline.run` executes it on the spec's backend, and the tables render
the unified :class:`~repro.api.runner.RunReport`.  Every knob (blocker,
weighting, pruning, matcher, budget, backend, streaming scenario,
durability) is a spec field; the flags only override the input files
and the backend.  Component names are resolved dynamically from the
:data:`~repro.api.registry.registry`, so plugins registered before
``main()`` appear in ``repro components`` and in spec error messages.

Subcommands::

    python -m repro run        --spec SPEC.json [--kb1 A.nt [--kb2 B.nt]]
                               [--gold G.csv] [--out M.csv]
                               [--backend sequential|mapreduce|stream|sql]
                               [--engine sqlite|duckdb] [--db-path FILE]
    python -m repro sql        explain --spec SPEC.json [--kb1 A.nt ...]
    python -m repro verify     DIR                   # durability directory
    python -m repro serve      --kb1 A.nt [--kb2 B.nt] [--shards N] ...
    python -m repro components [--kind KIND]         # registry listing
    python -m repro synthesize --entities N --regime center|periphery
                               --out-dir DIR
    python -m repro obs        report DIR            # render telemetry

``run`` and ``serve`` accept ``--trace-dir DIR`` / ``--metrics`` to
capture span traces (``DIR/trace.jsonl``) and the metric exposition
(``DIR/metrics.txt``); ``repro obs report DIR`` renders the per-stage
time-attribution tree and histogram tables.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from typing import Sequence

from repro.api import Pipeline, PipelineSpec, SpecError, registry
from repro.api.spec import BACKEND_KINDS, SQL_ENGINES
from repro.datasets.gold import load_gold_csv, save_gold_csv
from repro.datasets.synthetic import (
    CENTER_PROFILE,
    PERIPHERY_PROFILE,
    SyntheticConfig,
    synthesize_pair,
)
from repro.evaluation.reporting import format_table
from repro.model.collection import EntityCollection
from repro.rdf.loader import load_collection
from repro.rdf.ntriples import Triple, serialize_ntriples


def _positive_int(value: str) -> int:
    """Argparse type: an integer >= 1 (shard and event counts)."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (run/serve)."""
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


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The spec and input flags shared by run and sql explain."""
    parser.add_argument("--spec", required=True, help="PipelineSpec JSON file")
    parser.add_argument("--kb1", help="first KB (.nt); overrides the spec's data node")
    parser.add_argument("--kb2", help="second KB (needs --kb1)")
    parser.add_argument(
        "--engine", metavar="ENGINE",
        help="override the sql backend's relational engine "
        f"({'|'.join(SQL_ENGINES)})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MinoanER: progressive entity resolution in the Web of Data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute a declarative PipelineSpec JSON on any backend"
    )
    _add_spec_flags(run)
    run.add_argument("--gold", help="gold CSV (evaluation only)")
    run.add_argument(
        "--backend", metavar="KIND",
        help="override the spec's backend kind "
        f"({'|'.join(BACKEND_KINDS)})",
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
    _add_spec_flags(explain)

    verify = sub.add_parser(
        "verify",
        help="summarize what a durability directory recovers to and check "
        "that snapshot + WAL replay equals a full WAL replay",
    )
    verify.add_argument(
        "directory", help="durability directory (backend.durability_dir)"
    )

    components = sub.add_parser(
        "components", help="list every registered component and its parameters"
    )
    components.add_argument(
        "--kind", choices=tuple(registry.kinds()) + ("backends",),
        help="restrict to one component kind (or the backends section)",
    )

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

    obs =sub.add_parser(
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
    """An unusable spec or input file; ``main`` prints it and exits 2."""


def _load(path: str, loader=load_collection):
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        # ValueError: NTriplesParseError, an unsupported extension, bad UTF-8
        raise _InputError(f"cannot load {path}: {exc}") from exc


def _load_inputs(args: argparse.Namespace, **overrides):
    """--spec, backend overrides and --kb1/--kb2/--gold → run inputs.

    Returns ``(spec, kb1, kb2, gold)``.  Explicit files win over the
    spec's data node, whose gold fills in when --gold is absent; --kb2
    without --kb1 is rejected, never silently dropped.
    """
    try:
        spec = PipelineSpec.load(args.spec)
        if overrides:
            spec = spec.with_backend(**overrides)
    except FileNotFoundError:
        raise _InputError(f"spec file not found: {args.spec}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"spec file {args.spec} is not valid JSON: {exc}") from exc
    except SpecError as exc:
        raise _InputError(f"invalid spec {args.spec}: {exc}") from exc
    gold = _load(args.gold, load_gold_csv) if getattr(args, "gold", None) else None
    if args.kb1:
        return spec, _load(args.kb1), _load(args.kb2) if args.kb2 else None, gold
    if args.kb2:
        raise _InputError("cannot run spec: kb2 was supplied without kb1")
    if spec.data is None:
        raise _InputError("no input data: pass --kb1 or give the spec a data node")
    kb1, kb2, data_gold = spec.data.resolve()
    if kb1 is None:
        raise _InputError("the spec's data node resolved no collections")
    return spec, kb1, kb2, gold if gold is not None else data_gold


def _print_report(report, out_path: str | None = None) -> None:
    """The unified RunReport rendering."""
    print(
        format_table(
            [dict(stage=k, value=v) for k, v in report.summary().items()],
            title="Pipeline summary",
            first_column="stage",
        )
    )
    if report.block_quality is not None:
        print()
        print(format_table([report.block_quality.as_row()], title="Blocking quality"))
    if report.match_quality is not None:
        print()
        print(format_table([report.match_quality.as_row()], title="Matching quality"))
    if report.workload is not None:
        print()
        _print_replay(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["uri1", "uri2"])
            for left, right in sorted(report.matched_pairs()):
                writer.writerow([left, right])
        print(f"\nmatches written to {out_path}")


def _print_replay(report) -> None:
    print(
        format_table(
            report.workload.summary_rows(),
            title=f"Streaming replay: {report.backend.get('scenario', '?')}",
            first_column="metric",
        )
    )


def cmd_run(args: argparse.Namespace) -> int:
    from repro.stream.workload import graceful_sigterm

    overrides = {
        key: value
        for key, value in (
            ("kind", args.backend),
            ("engine", args.engine),
            ("db_path", args.db_path),
        )
        if value
    }
    spec, kb1, kb2, gold = _load_inputs(args, **overrides)
    obs = _make_obs(args)
    # On a stream replay SIGTERM (systemd stop, Kubernetes eviction, CI
    # cancellation) takes the same graceful path as Ctrl-C: partial
    # stats, a clean WAL close, and an exit code naming the signal (143
    # vs 130).  Other backends keep the default handler, which forked
    # MapReduce workers inherit.
    stream = spec.backend.kind == "stream"
    with graceful_sigterm() if stream else contextlib.nullcontext() as term:
        try:
            report = Pipeline.run(spec, kb1, kb2, gold=gold, obs=obs)
        except SpecError as exc:
            print(f"cannot run spec: {exc}")
            return 2
    print(f"spec {os.path.basename(args.spec)} → cache key {report.spec_key[:16]}…\n")
    if report.workload is not None and report.workload.interrupted:
        # The runner stopped after the replay: the table covers the
        # executed prefix, and its telemetry is already on disk.
        report.workload.interrupt_signal = term.name
        _print_replay(report)
        _finish_obs(obs, args)
        return 143 if term.name == "SIGTERM" else 130
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
    from repro.sqlbackend import SqlBackendError, SqlMetaBlocker, planlint

    overrides = {"kind": "sql"}
    if args.engine:
        overrides["engine"] = args.engine
    spec, kb1, kb2, _ = _load_inputs(args, **overrides)
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


def cmd_verify(args: argparse.Namespace) -> int:
    """`repro verify DIR`: the state DIR recovers to, and whether the
    snapshot + WAL-suffix recovery equals a replay of the whole WAL."""
    from repro.stream import durability

    try:
        result = durability.recover(args.directory)
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
            title=f"Recovered streaming state: {args.directory}",
            first_column="metric",
        )
    )
    states = [
        durability.capture_state(
            r.store, r.index, r.pairs, r.view, r.view_pairs
        )
        for r in (result, durability.recover(args.directory, from_scratch=True))
    ]
    equivalent = states[0] == states[1]
    print(f"replay equivalence: {'OK' if equivalent else 'FAIL'}")
    return 0 if equivalent else 1


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
    "run": cmd_run,
    "sql": cmd_sql,
    "verify": cmd_verify,
    "components": cmd_components,
    "serve": cmd_serve,
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
