"""Product-path census: which functions of ``src/repro`` no product runs.

Runs every product path (the experiments, the examples, the repository
benchmark and the CLI smokes that CI runs) with a call recorder in each
Python process, then lists every function of ``src/repro`` that none of
them called, with its line count, in ``census.txt`` at the repository
root::

    python tests/tools/census.py            # about a minute on 2 CPUs

A test calling a function does not count: the census measures what a
user of the package reaches.  An entry listed in :data:`KEPT` stays on
purpose — a typed-error or fault-seam path that no healthy run takes,
or a plugin-contract default — and is marked with the tier-1 test that
asserts it.  Every other entry is open: it should gain a product path
or go.

The recorder is a ``sitecustomize`` module put first on ``PYTHONPATH``,
so it runs in every interpreter a product path starts: spawned workers,
bench subprocesses and serving shards.  It records a function the first
time the process runs it, straight to a per-process file, so a process
that leaves through ``os._exit`` (every forked worker does) or is killed
(the serve smoke kills a shard) loses nothing.  Functions are found with
:mod:`ast`; a code object's ``co_firstlineno`` is its first decorator's
line, so a decorated function is keyed by that line.  Nested functions
count as part of the function that encloses them.

Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: seconds one product path may take before the census gives up
TIMEOUT_S = 240

#: the recorder every interpreter imports at start-up
SITECUSTOMIZE = '''\
import os, sys, threading

_ROOT = os.environ["CENSUS_ROOT"]
_OUT = os.environ["CENSUS_OUT"]
_seen = set()
_ours = {}
_fd = [None, None]  # pid, file descriptor


def _record(filename, line):
    pid = os.getpid()
    if _fd[0] != pid:  # first record of this process, or of a forked child
        path = os.path.join(_OUT, f"calls-{pid}.txt")
        _fd[:] = pid, os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.write(_fd[1], f"{filename}\\t{line}\\n".encode())


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        filename = code.co_filename
        ours = _ours.get(filename)
        if ours is None:
            ours = _ours[filename] = os.path.abspath(filename).startswith(_ROOT)
        if ours:
            key = (filename, code.co_firstlineno)
            if key not in _seen:
                _seen.add(key)
                _record(*key)


sys.setprofile(_hook)
threading.setprofile(_hook)
'''

_POWER_LOSS = "tests/stream/test_power_loss.py::test_power_loss_keeps_every_acknowledged_event"
_CRASH = "tests/stream/test_crash_recovery.py::test_crash_gate_bit_identical"
_PARSE_ERRORS = "tests/rdf/test_ntriples.py::TestParseErrors"
_SCAN = "tests/rdf/test_scan_differential.py::test_scan_equals_parse_then_group"
_ESCAPED = (
    "tests/rdf/test_scan_differential.py::"
    "test_subject_coming_back_merges_into_its_first_description"
)

#: entries that stay on purpose, "path:qualname" → (why, the tier-1 test
#: that asserts it).  A kept entry is listed whether or not this run
#: reached it: a fault path such as a re-send after a lost reply, or the
#: router's idle wait, is taken or not as the timing of the serve smoke
#: falls (seen by rerunning the smoke with zero to two busy processes
#: beside it), and the nightly diff must not depend on that.
KEPT: dict[str, tuple[str, str]] = {
    "repro/core/benefit.py:BenefitModel.stale_after": (
        "plugin-contract default for a model that overrides nothing",
        "tests/core/test_update_phase_delta.py::"
        "test_model_without_stale_after_is_refreshed_on_the_conservative_set",
    ),
    "repro/rdf/loader.py:collection_from_triples": (
        "reference: the oracle the scanner is compared against", _SCAN
    ),
    "repro/rdf/ntriples.py:parse_ntriples": (
        "reference: the oracle the scanner is compared against", _SCAN
    ),
    "repro/rdf/ntriples.py:parse_ntriples_line": (
        "reference: the one-statement parse the cursor oracle is held to",
        "tests/rdf/test_scanner_differential.py::test_valid_statements_parse_identically",
    ),
    **{
        f"repro/rdf/ntriples.py:{name}": (
            "data path: a statement with an escape or an indent, which no shipped corpus has",
            _ESCAPED,
        )
        for name in ["_parse_statement", "_unescape", "_decode_escape"]
    },
    "repro/rdf/ntriples.py:NTriplesParseError.__init__": (
        "typed error", f"{_PARSE_ERRORS}::test_error_carries_line_number"
    ),
    "repro/rdf/ntriples.py:_diagnose": (
        "typed error", f"{_PARSE_ERRORS}::test_error_names_the_malformed_term"
    ),
    "repro/serving/shard.py:ShardHandle.freeze": (
        "fault seam (serve --fault freeze)",
        "tests/serving/test_tier.py::TestKillAndRecovery::"
        "test_freeze_detected_as_stuck_and_respawned",
    ),
    "repro/serving/supervisor.py:RetryPolicy.backoff_s": (
        "fault path: re-send after a lost reply",
        "tests/serving/test_supervisor.py::TestRetryPolicy::test_backoff_doubles_and_caps",
    ),
    "repro/serving/router.py:Router.idle": (
        "timing: the serve smoke idles only while its open-loop load runs ahead of schedule",
        "tests/serving/test_tier.py::TestEventDrivenDataPlane::"
        "test_respawn_cycles_do_not_leak_descriptors",
    ),
    "repro/stream/durability.py:WriteAheadLog.abandon": ("fault seam: die unsynced", _CRASH),
    "repro/stream/durability.py:Durability.abandon": ("fault seam: die unsynced", _CRASH),
    **{
        f"repro/stream/durability.py:{name}": ("fault seam: torn writes, power loss", _POWER_LOSS)
        for name in [
            "_CrashyHandle.__init__", "_CrashyHandle.write", "_CrashyHandle.fileno",
            "_CrashyHandle.close", "_CrashyHandle.closed", "CrashyFiles.__init__",
            "CrashyFiles.consume", "CrashyFiles.open_append", "CrashyFiles.write_bytes",
            "CrashyFiles.fsync", "CrashyFiles.power_loss",
        ]
    },
    "repro/stream/durability.py:CrashyFiles.fsync_dir": (
        "fault seam: directory syncs recorded, not made",
        "tests/stream/test_directory_sync.py::"
        "test_crashy_files_record_directory_syncs_without_making_them",
    ),
}


def _spec(path: str, **backend) -> list[str]:
    """A command writing the movies spec with *backend* to *path*."""
    return [
        sys.executable, "-c",
        "import sys; from repro.api import PipelineSpec; "
        f"PipelineSpec.load('examples/spec_movies.json').with_backend(**{backend!r})"
        ".save(sys.argv[1])",
        path,
    ]


def product_paths(scratch: str) -> list[list[str]]:
    """Every product path, as commands run from the repository root."""
    python, repro = sys.executable, [sys.executable, "-m", "repro"]
    data = "src/repro/datasets/data"
    spec = "examples/spec_movies.json"
    durable, traced = f"{scratch}/durable", f"{scratch}/traced"
    return [
        [python, "-m", "pytest", "benchmarks/", "-q", "-p", "no:cacheprovider",
         "-o", "python_files=bench_e*.py", "--benchmark-disable"],
        *([python, str(script)] for script in sorted((REPO / "examples").glob("*.py"))),
        [python, "bench/run.py", "--scale", "0.25", "--trace", "1", "--seconds", "1",
         "--out", f"{scratch}/bench"],
        repro + ["run", "--spec", spec],
        repro + ["run", "--spec", spec, "--backend", "stream", "--trace-dir", traced],
        repro + ["obs", "report", traced],
        _spec(f"{scratch}/durable.json", kind="stream", scenario="churn",
              processed_view=True, durability_dir=durable, snapshot_every=15),
        repro + ["run", "--spec", f"{scratch}/durable.json"],
        repro + ["verify", durable],
        _spec(f"{scratch}/mp.json", kind="mapreduce", executor="process", workers=2),
        repro + ["run", "--spec", f"{scratch}/mp.json", "--trace-dir", f"{scratch}/mp"],
        repro + ["run", "--spec", spec, "--backend", "sql"],
        repro + ["sql", "explain", "--spec", spec],
        repro + ["components"],
        repro + ["synthesize", "--out-dir", f"{scratch}/synthetic"],
        repro + ["serve", "--kb1", f"{data}/movies_a.nt", "--kb2", f"{data}/movies_b.nt",
                 "--shards", "2", "--rate", "300", "--fault", "kill:1@e=20",
                 "--heartbeat-deadline", "0.5"],
    ]


def _name(decorator: ast.expr) -> str:
    """The last dotted name of a decorator: ``abc.abstractmethod`` → ``abstractmethod``."""
    return decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")


def functions(root: Path) -> list[tuple[str, int, str, int]]:
    """``(path, first line, qualname, lines)`` of every module- or
    class-level function under *root*; the first line is the first
    decorator's, as in ``co_firstlineno``.  An ``abstractmethod`` is a
    declaration, not a code path: its body never runs, so it is left out."""
    found = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not any(_name(d) == "abstractmethod" for d in child.decorator_list):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((path, first, prefix + child.name, child.end_lineno - first + 1))
            elif not isinstance(child, ast.Lambda):
                visit(child, path, prefix)  # if / try blocks at module or class level

    for source in sorted(root.rglob("*.py")):
        path = source.relative_to(root.parent).as_posix()
        visit(ast.parse(source.read_text(encoding="utf-8")), path, "")
    return found


def called(out_dir: str, root: Path) -> set[tuple[str, int]]:
    """``(path, first line)`` of every function a recorded process ran."""
    seen = set()
    for record in Path(out_dir).glob("calls-*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, _, first = line.rpartition("\t")
            path = Path(os.path.realpath(filename))
            if path.is_relative_to(root):
                seen.add((path.relative_to(root.parent).as_posix(), int(first)))
    return seen


def render(everything, seen, kept=KEPT) -> str:
    """The census text: every uncalled or kept function, then the totals."""
    gone = sorted(set(kept) - {f"{path}:{name}" for path, _, name, _ in everything})
    if gone:
        raise SystemExit(f"census: kept entries no longer exist: {gone}")
    rows, open_lines, kept_lines = [], [], []
    for path, first, name, lines in everything:
        mark = kept.get(f"{path}:{name}")
        if mark:
            rows.append(f"{lines:5d}  {path}:{name}  [kept: {mark[0]}; {mark[1]}]")
            kept_lines.append(lines)
        elif (path, first) not in seen:
            rows.append(f"{lines:5d}  {path}:{name}")
            open_lines.append(lines)
    return "\n".join([
        "# Functions of src/repro that no product path calls (python tests/tools/census.py).",
        "# lines  path:qualname  [kept: why it stays; the tier-1 test that asserts it]",
        *rows,
        f"# total: {len(rows)} of {len(everything)} functions, "
        f"{sum(open_lines) + sum(kept_lines)} lines: {len(open_lines)} open "
        f"({sum(open_lines)} lines), {len(kept_lines)} kept ({sum(kept_lines)} lines)",
    ]) + "\n"


def run(commands, root: Path, out: Path, cwd: Path = REPO, kept=KEPT) -> str:
    """Run *commands* (a list, or a function of a scratch directory giving
    one) with the recorder on, from *cwd*, and write the census of the
    package *root* to *out*; returns its text."""
    scratch = tempfile.mkdtemp(prefix="census-")
    try:
        hook_dir, calls = os.path.join(scratch, "hook"), os.path.join(scratch, "calls")
        os.makedirs(hook_dir)
        os.makedirs(calls)
        Path(hook_dir, "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        env = dict(os.environ, CENSUS_ROOT=str(root) + os.sep, CENSUS_OUT=calls,
                   PYTHONPATH=os.pathsep.join([hook_dir, str(root.parent)]))
        for command in commands(scratch) if callable(commands) else commands:
            print("census:", *command[1:4], flush=True)
            subprocess.run(command, cwd=cwd, env=env, check=True, timeout=TIMEOUT_S,
                           stdout=subprocess.DEVNULL)
        text = render(functions(root), called(calls, root), kept)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out.write_text(text, encoding="utf-8")
    return text


def main() -> None:
    text = run(product_paths, REPO / "src" / "repro", REPO / "census.txt")
    print(text.splitlines()[-1])


if __name__ == "__main__":
    main()
