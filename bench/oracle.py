"""Output checks and failure accounting.

Every workload counts what it attempted and what failed; a failed
oracle check is one failed operation, so ``failed / attempted`` is the
run's ``failed_share`` and any miss makes ``bench/run.py`` exit non-zero.
"""

from __future__ import annotations

import glob
import hashlib
import os


class Ledger:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int) -> None:
        """Operations that completed and need no further check."""
        self.attempted += count

    def fail(self, message: str) -> None:
        """An operation that raised or came back degraded."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """One oracle comparison; *message* is recorded on a miss."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok


def digest(edges, matched_pairs=()) -> str:
    """Hash of the pruned edges (order and float bits) and the matches."""
    h = hashlib.sha256()
    for edge in edges:
        h.update(f"{edge.left}\t{edge.right}\t{edge.weight!r}\n".encode())
    h.update(b"--\n")
    for left, right in sorted(matched_pairs):
        h.update(f"{left}\t{right}\n".encode())
    return h.hexdigest()


def canonical_state(state: dict) -> dict:
    """A ``capture_state`` document with empty view entries dropped.

    After a delete the live processed view keeps ``retained[e] == []``
    and ``members[k] == [[], []]`` where a view restored from a snapshot
    has no entry at all.  The two answer every query alike, so the
    recovery check compares them as equal (bench/README.md, findings).
    """
    view = state.get("view")
    if view is None:
        return state
    view = dict(view)
    view["retained"] = {e: keys for e, keys in view["retained"].items() if keys}
    view["members"] = {
        key: sides for key, sides in view["members"].items() if sides[0] or sides[1]
    }
    return {**state, "view": view}


def leaked_shm_segments() -> list[str]:
    """Shared-memory segments of the MapReduce data plane still present."""
    return sorted(glob.glob("/dev/shm/repro_shm*"))


def leftover_files(directory: str) -> list[str]:
    """Everything still under the workload's temp *directory*."""
    found = []
    for root, dirs, files in os.walk(directory):
        found.extend(os.path.join(root, name) for name in dirs + files)
    return sorted(found)
