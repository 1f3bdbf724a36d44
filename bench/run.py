#!/usr/bin/env python3
"""The repository's one benchmark.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--scale F] [--out DIR]

Every workload named (default: all of BENCHMARK.json) runs in a fresh
subprocess with ``PYTHONHASHSEED=0`` and inputs generated from the seed.
``--trace 0`` measures end to end with tracing off; ``--trace 1`` adds
a second, traced measurement and reports the per-layer metrics.  Every
metric is printed by name with its unit, outputs are checked against an
oracle, and one result file is written under ``--out``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit code is non-zero when anything failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sqlite3
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
#: a workload subprocess is killed after this long (the driver allows 180 s)
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "seed": seed,
        "git_commit": commit,
        "load_average_start": os.getloadavg()[0],
    }


def run_workload(name: str, args, out: str) -> dict:
    """One workload in a fresh interpreter; returns its result document."""
    tmp = os.path.join(out, f"tmp-{name}-{os.getpid()}")
    os.makedirs(tmp)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, os.path.join(BENCH, "workloads.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale), "--tmp", tmp,
        "--trace-file", os.path.join(out, f"trace-{name}.jsonl"),
    ]
    # Its own session, so that a timeout can also kill the workers and
    # shards the workload forked.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError(f"no result within {CHILD_TIMEOUT_S} s") from None
        lines = stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(
                f"exit code {child.returncode}: {stderr.strip()[-2000:]}"
            )
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError) as error:
        result = {
            "workload": name, "attempted": 1, "failed": 1,
            "failures": [f"{name}: workload process failed: {error}"], "metrics": {},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["metrics"]["e2e.failed_share"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio", "n": 1,
    }
    return result


def contract_metrics(result: dict, contract: dict, trace: int) -> dict:
    """The declared metrics of this mode; a layer off the path reports 0."""
    out = {}
    for metric in contract["per_layer" if trace else "end_to_end"]:
        entry = result["metrics"].get(metric["name"])
        if entry is None and trace:
            entry = {"value": 0, "unit": metric["unit"]}
        if entry is not None:
            out[metric["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return out


def print_result(result: dict) -> None:
    print(f"== {result['workload']}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, entry in sorted(result["metrics"].items()):
        spread = ""
        if "q1" in entry:
            spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
        print(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']}{spread}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro next to bench/: nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every corpus size (the smoke test uses 0.05)")
    parser.add_argument("--out", default=os.path.join(BENCH, "out"))
    args = parser.parse_args(argv)

    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    document = {
        "environment": fingerprint(args.seed),
        "seconds": args.seconds, "scale": args.scale, "traced": bool(args.trace),
        "workloads": {},
    }
    noisy = document["environment"]["load_average_start"] > (os.cpu_count() or 1) / 2
    document["noisy"] = noisy
    if noisy:
        print("NOISY: the 1-minute load average exceeds nproc / 2; "
              "timings of this run are suspect")

    attempted = failed = 0
    last_line_metrics = {}
    selected = args.workload or names
    for name in selected:
        result = run_workload(name, args, out)
        print_result(result)
        document["workloads"][name] = result
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in contract_metrics(result, contract, args.trace).items():
            key = metric if len(selected) == 1 else f"{name}:{metric}"
            last_line_metrics[key] = entry
    document["environment"]["load_average_end"] = os.getloadavg()[0]

    mode = "traced" if args.trace else "untraced"
    path = os.path.join(out, f"result-seed{args.seed}-{mode}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"result file: {path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": last_line_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
