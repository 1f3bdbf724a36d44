"""E8 — MapReduce scaling figure (per the parallel blocking/meta-blocking
papers [4, 5]).

Runs parallel token blocking and both parallel meta-blocking strategies on
the simulated cluster at 1, 2, 4 and 8 workers, reporting the simulated
critical-path cost (slowest map task + slowest reduce task), the derived
speedup over one worker, shuffle volume and reduce skew.  Shape to check:
speedup grows with workers but sub-linearly (skewed token distributions
leave stragglers — the effect [4] dedicates its load-balancing discussion
to), and the entity-centric strategy ships more shuffle data than the
edge-centric one on the same input.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.evaluation.reporting import format_table
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.parallel_blocking import parallel_token_blocking
from repro.mapreduce.parallel_metablocking_ids import parallel_metablocking_ids
from repro.metablocking.pruning import CNP, WEP
from repro.metablocking.weighting import ARCS

WORKERS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def processed_blocks(center):
    blocks = TokenBlocking().build(center.kb1, center.kb2)
    return BlockFiltering().process(BlockPurging().process(blocks))


def run_experiment(center, processed_blocks):
    rows = []
    base_costs: dict[str, int] = {}

    def add(job: str, workers: int, metrics_list) -> None:
        cost = sum(m.critical_path_cost for m in metrics_list)
        shuffle_records = sum(m.shuffle_records for m in metrics_list)
        shuffle_bytes = sum(m.shuffle_bytes for m in metrics_list)
        skew = max(m.skew for m in metrics_list)
        if workers == 1:
            base_costs[job] = cost
        rows.append(
            {
                "job": job,
                "workers": str(workers),
                "critical path": str(cost),
                "speedup": f"{base_costs[job] / cost:.2f}x",
                "shuffle records": str(shuffle_records),
                "shuffle KiB": f"{shuffle_bytes / 1024:.0f}",
                "max skew": f"{skew:.2f}",
            }
        )

    for workers in WORKERS:
        engine = MapReduceEngine(workers=workers)
        _, blocking_metrics = parallel_token_blocking(engine, center.kb1, center.kb2)
        add("token blocking", workers, [blocking_metrics])
        _, edge_metrics = parallel_metablocking_ids(
            engine, processed_blocks, ARCS(), WEP()
        )
        add("meta-blocking (edge-centric WEP)", workers, edge_metrics)
        _, node_metrics = parallel_metablocking_ids(
            engine, processed_blocks, ARCS(), CNP()
        )
        add("meta-blocking (entity-centric CNP)", workers, node_metrics)
    return rows


def test_e8_mapreduce_scaling(benchmark, center, processed_blocks):
    rows = run_experiment(center, processed_blocks)

    benchmark(
        lambda: parallel_token_blocking(
            MapReduceEngine(workers=4), center.kb1, center.kb2
        )
    )

    report(
        "e8_mapreduce",
        format_table(rows, title="E8  Simulated MapReduce scaling", first_column="job"),
    )

    by_key = {(r["job"], r["workers"]): r for r in rows}
    for job in (
        "token blocking",
        "meta-blocking (edge-centric WEP)",
        "meta-blocking (entity-centric CNP)",
    ):
        costs = [int(by_key[(job, str(w))]["critical path"]) for w in WORKERS]
        # More workers never increase the simulated wall time...
        assert costs[-1] < costs[0]
        # ...but speedup is sub-linear (skew leaves stragglers).
        speedup8 = float(by_key[(job, "8")]["speedup"].rstrip("x"))
        assert 1.0 < speedup8 <= 8.0
    # Entity-centric meta-blocking ships each edge to both endpoints:
    # strictly more shuffle volume than the edge-centric strategy.
    assert int(by_key[("meta-blocking (entity-centric CNP)", "4")]["shuffle records"]) > int(
        by_key[("meta-blocking (edge-centric WEP)", "4")]["shuffle records"]
    )
