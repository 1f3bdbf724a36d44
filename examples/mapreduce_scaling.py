#!/usr/bin/env python3
"""Parallel blocking and meta-blocking on the simulated MapReduce cluster.

Runs the MapReduce jobs of token blocking [5] and meta-blocking [4] at
increasing worker counts, verifying output equivalence with the
sequential implementations and reporting the simulated speedup, shuffle
volume and reduce-side skew — the trade-offs the companion papers measure
on a real Hadoop cluster.

Run:  python examples/mapreduce_scaling.py
"""

from repro import MapReduceEngine, SyntheticConfig, format_table, synthesize_pair
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.mapreduce import parallel_metablocking_ids, parallel_token_blocking
from repro.metablocking import ARCS, CNP, BlockingGraph


def main() -> None:
    dataset = synthesize_pair(SyntheticConfig(entities=400, overlap=0.7, seed=13))
    kb1, kb2 = dataset.kb1, dataset.kb2
    print(f"Workload: {len(kb1)} + {len(kb2)} descriptions\n")

    # Sequential reference.
    sequential_blocks = TokenBlocking().build(kb1, kb2)
    processed = BlockFiltering().process(BlockPurging().process(sequential_blocks))
    sequential_edges = CNP().prune(BlockingGraph(processed, ARCS()))

    rows = []
    base_cost = None
    for workers in (1, 2, 4, 8):
        engine = MapReduceEngine(workers=workers)
        blocks, blocking_metrics = parallel_token_blocking(engine, kb1, kb2)
        assert blocks.keys() == sequential_blocks.keys(), "parallel != sequential!"

        edges, meta_metrics = parallel_metablocking_ids(
            engine,
            BlockFiltering().process(BlockPurging().process(blocks)),
            ARCS(),
            CNP(),
        )
        assert [(e.pair, e.weight) for e in edges] == [
            (e.pair, e.weight) for e in sequential_edges
        ], "parallel != sequential!"

        cost = blocking_metrics.critical_path_cost + sum(
            m.critical_path_cost for m in meta_metrics
        )
        if base_cost is None:
            base_cost = cost
        rows.append(
            {
                "workers": str(workers),
                "critical path": str(cost),
                "speedup": f"{base_cost / cost:.2f}x",
                "shuffle records": str(
                    blocking_metrics.shuffle_records
                    + sum(m.shuffle_records for m in meta_metrics)
                ),
                "max reduce skew": f"{max(m.skew for m in meta_metrics):.2f}",
            }
        )

    print(format_table(rows, title="Simulated cluster scaling (blocking + meta-blocking)",
                       first_column="workers"))
    print("\nParallel output verified identical to the sequential pipeline "
          "at every worker count.")


if __name__ == "__main__":
    main()
