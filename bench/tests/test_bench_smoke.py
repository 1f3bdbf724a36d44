"""Smoke test of the benchmark: every workload at 1/20 scale, both modes.

Runs ``bench/run.py`` as the driver does (a subprocess per mode), so the
same code path is exercised; only the corpus sizes and the measuring
time are small.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(out, trace: int) -> tuple[dict, dict]:
    """(result document, last-line object) of one full set of workloads."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "run.py"), "--scale", "0.05",
            "--seconds", "0.2", "--trace", str(trace), "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    mode = "traced" if trace else "untraced"
    with open(out / f"result-seed42-{mode}.json", encoding="utf-8") as handle:
        return json.load(handle), json.loads(done.stdout.strip().splitlines()[-1])


def test_bench_smoke(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    workloads = [w["name"] for w in contract["workloads"]]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]

    untraced, last = run_bench(tmp_path, trace=0)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for name in workloads:
        result = untraced["workloads"][name]
        assert result["failed"] == 0, result["failures"]
        for metric in contract["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0, metric
    for key in ("cpu_count", "python", "numpy", "sqlite", "seed", "git_commit",
                "load_average_start", "load_average_end"):
        assert key in untraced["environment"], key
    assert isinstance(untraced["noisy"], bool)

    traced, last = run_bench(tmp_path, trace=1)
    assert last["correct"] and last["failed"] == 0
    emitted = set()
    for name in workloads:
        result = traced["workloads"][name]
        assert result["failed"] == 0, result["failures"]
        assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0
        metrics = result["metrics"]
        assert metrics["api.unattributed_share"]["value"] <= 0.05, name
        assert metrics["bench.trace_overhead_ratio"]["value"] > 0, name
        for metric in contract["per_layer"]:
            # a layer off this workload's path is reported as 0 on the last line
            assert f"{name}:{metric['name']}" in last["metrics"], (name, metric)
            if metric["name"] in metrics:
                assert metrics[metric["name"]]["unit"] == metric["unit"], metric
                emitted.add(metric["name"])
        assert all(NAME.fullmatch(key) for key in metrics), sorted(metrics)
    missing = {m["name"] for m in contract["per_layer"]} - emitted
    assert not missing, f"declared but never measured: {sorted(missing)}"
    assert not [p for p in os.listdir(tmp_path) if p.startswith("tmp-")]

    path = str(tmp_path / "result-seed42-untraced.json")
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "compare.py"), path, path],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    verdicts = {line.split()[-1] for line in done.stdout.splitlines()[1:-1]}
    assert verdicts <= {"unchanged", "-"}, verdicts
