#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

One row per workload and metric found in both files: both medians with
their quartiles, the ratio B / A (A is the base), and a verdict for the
end-to-end metrics, whose bounds and directions are read from
BENCHMARK.json:

    improved    B is better than A by more than the bound
    unchanged   B is within the bound of A
    regressed   B is worse than A by more than the bound
    unresolved  the estimated run-to-run spread exceeds the bound

Per-layer metrics carry no bound and get no verdict.  The exit code is
non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(entry: dict) -> float:
    """Estimated run-to-run spread of the entry's median, as a share of it.

    A result file holds one run: n repeats with their quartiles.  For n
    independent repeats the medians of such runs have an interquartile
    range of about 1.25 * IQR / sqrt(n) (1.2533 sigma / sqrt(n) standard
    error of a median; an IQR is 1.349 sigma).
    """
    if "q1" not in entry or not entry["value"]:
        return 0.0
    iqr = entry["q3"] - entry["q1"]
    return 1.25 * iqr / math.sqrt(entry["n"]) / abs(entry["value"])


def verdict(a: dict, b: dict, metric: dict) -> str:
    bound = metric.get("bound")
    if bound is None:
        return "-"
    if a["value"] == b["value"]:
        return "unchanged"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if not a["value"]:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def show(entry: dict) -> str:
    text = f"{entry['value']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.4g}, {entry['q3']:.4g}]"
    return text


def compare(path_a: str, path_b: str) -> list[tuple]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    metrics = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for name in sorted(set(a[workload]["metrics"]) & set(b[workload]["metrics"])):
            entry_a = a[workload]["metrics"][name]
            entry_b = b[workload]["metrics"][name]
            ratio = entry_b["value"] / entry_a["value"] if entry_a["value"] else float("nan")
            rows.append(
                (workload, name, entry_a, entry_b, ratio,
                 verdict(entry_a, entry_b, metrics.get(name, {})))
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':<17} {'metric':<34} {'A (base)':<32} {'B':<32} {'B/A':>8}  verdict")
    for workload, name, a, b, ratio, outcome in rows:
        print(
            f"{workload:<17} {name:<34} {show(a):<32} {show(b):<32} "
            f"{ratio:>8.3f}  {outcome}"
        )
    regressed = [row for row in rows if row[5] == "regressed"]
    print(f"{len(rows)} rows, {len(regressed)} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
