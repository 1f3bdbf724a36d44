"""Crash safety for the streaming layer: write-ahead log + snapshots.

The streaming structures (store, block index, pair table, processed
view) are maintained by delta and live purely in memory — kill the
process and the serving state is gone.  This module makes a streaming
deployment restartable:

* :class:`WriteAheadLog` — an append-only record stream, one line per
  event (``crc32 <json>``), written **before** the event is applied.
  Records carry a monotonically increasing LSN; a versioned header
  record (LSN 0) pins the format and the store configuration.  On open
  the log is scanned and the **torn tail** — a partially-written or
  CRC-corrupt final stretch — is truncated, so a crash mid-write never
  poisons recovery.
* Snapshots — the full serialized component state (store, posting
  arrays, global pair factors, processed-view histogram and survivor
  bookkeeping) written atomically (tmp + ``os.replace``) under the same
  CRC envelope.  Restoring a snapshot is deserialization, not replay,
  so :func:`recover` only re-applies the WAL *suffix* past the latest
  valid snapshot — strictly fewer events than the full history.
* :class:`Durability` — the controller gluing both to a live
  :class:`~repro.stream.store.StreamingEntityStore`: logs
  insert/delete/reconcile/apply events write-ahead and snapshots every
  ``snapshot_every`` records.
* :func:`recover` — rebuilds ``(store, index, pairs, view,
  view_pairs)`` bit-identical to the uninterrupted run at the last
  durable event: latest valid snapshot (skipping torn or corrupt ones)
  plus WAL-suffix replay.

**The contract: only an acknowledged mutation costs an fsync.**
``insert`` and ``delete`` records are the acknowledgements — someone is
told the event happened when ``ingest`` / ``delete`` returns — so they
are what ``fsync_every`` counts (1 = synced before the call returns, N =
at most N - 1 of them in the OS cache) and what forces a sync.  The
``apply`` / ``reconcile`` records a *query* writes (the processed view's
drain markers) acknowledge nothing: they go through the same unbuffered
handle in LSN order and ride on the next mutation's sync or on
``close()``.  A crash may therefore lose a trailing run of drain
markers — a state the uninterrupted run also passed through, which the
next read re-derives — never an acknowledged insert or delete, and
never half of a record.  A snapshot never leads the durable log:
:meth:`Durability.snapshot_now` syncs the log before capturing, and
opening a directory discards a snapshot whose LSN the log never reached.

Fault injection is a first-class seam: all file I/O goes through a
:class:`OsFiles` object, and :class:`CrashyFiles` is a byte-budgeted
variant that tears the over-budget write and raises
:class:`CrashError` — a process killed mid-write — so the test harness
can kill a replay at any byte offset, including mid-snapshot; its
:meth:`~CrashyFiles.power_loss` then drops every appended byte no
``fsync`` covered, which is what tells an acknowledged event from a
cached one.

Not recovered (documented limitations): the resolver's match-decision
graph (query results are serving artifacts, not store state) and the
similarity cache (rebuilt from the live store on re-wire, which yields
identical scores).
"""

from __future__ import annotations

import json
import os
import zlib
from array import array
from dataclasses import dataclass

from repro.blocking.base import Blocker
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.model.description import EntityDescription
from repro.obs import DISABLED, Observability
from repro.stream.index import _POSTING_TYPECODE, IncrementalBlockIndex
from repro.stream.pairs import DeltaPairTable
from repro.stream.processed_view import IncrementalProcessedView
from repro.stream.store import StreamingEntityStore

WAL_FORMAT = "repro-wal"
WAL_VERSION = 1
SNAPSHOT_FORMAT = "repro-snapshot"
#: written by this build; 1 also carried the raw pair table's
#: ``state.pairs.common`` dict and 1 / 2 the survivor table's
#: ``state.view_pairs.common``, which the lazy tables derive instead;
#: 1 – 3 carried raw ``state.pairs`` factors beside a view's, which no
#: query of such a resolver reads (4 writes ``null`` there)
SNAPSHOT_VERSION = 4
_READABLE_SNAPSHOT_VERSIONS = (1, 2, 3, 4)
WAL_NAME = "wal.log"
_SNAPSHOT_SUFFIX = ".json"
_SNAPSHOT_PREFIX = "snapshot-"


class CrashError(RuntimeError):
    """Raised by fault-injecting file layers to simulate a crash."""


class OsFiles:
    """Plain-OS file operations; the injection seam for fault tests."""

    def open_append(self, path: str):
        """Unbuffered append handle: every write is one OS-level write."""
        return open(path, "ab", buffering=0)

    def write_bytes(self, path: str, payload: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, source: str, destination: str) -> None:
        os.replace(source, destination)

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def fsync_dir(self, path: str) -> None:
        """Make *path*'s entries durable: a file created or renamed there."""
        descriptor = os.open(path, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)


class _CrashyHandle:
    """Append-handle proxy that tears the write exceeding the budget."""

    def __init__(self, inner, owner: "CrashyFiles", path: str) -> None:
        self._inner = inner
        self._owner = owner
        self.path = path

    def write(self, payload: bytes) -> int:
        allowed = self._owner.consume(payload)
        if allowed is not payload:
            if allowed:
                self._inner.write(allowed)
            self._inner.close()
            raise CrashError("injected crash mid-append")
        return self._inner.write(payload)

    def fileno(self) -> int:
        return self._inner.fileno()

    def close(self) -> None:
        if not self._inner.closed:
            self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class CrashyFiles(OsFiles):
    """Byte-budgeted file layer: the write crossing the budget is torn.

    The first *budget* bytes reach the OS; the write that would exceed
    it is cut short (a torn record or a partial snapshot temp file) and
    :class:`CrashError` is raised.  Every later write fails immediately
    — the process is "dead".

    The layer also remembers, per appended file, how many bytes the last
    ``fsync`` covered: :meth:`power_loss` cuts every such file back to
    that length, which is what losing power (not just the process) does
    to the part of a log the OS had only cached.  Snapshot files are
    written and fsynced in one call, so they survive whole or not at all.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        #: appended path → bytes known to be on stable storage
        self._synced: dict[str, int] = {}
        #: directories ``fsync_dir`` was called on (never really synced)
        self.synced_dirs: list[str] = []

    def consume(self, payload: bytes) -> bytes:
        if self.budget < 0:
            raise CrashError("injected crash: process already dead")
        if len(payload) <= self.budget:
            self.budget -= len(payload)
            return payload
        allowed = payload[: self.budget]
        self.budget = -1
        return allowed

    def open_append(self, path: str):
        handle = _CrashyHandle(super().open_append(path), self, path)
        # What a file held when it was opened is taken to be on disk.
        self._synced.setdefault(path, os.path.getsize(path))
        return handle

    def write_bytes(self, path: str, payload: bytes) -> None:
        allowed = self.consume(payload)
        if allowed is not payload:
            with open(path, "wb") as handle:
                handle.write(allowed)
            raise CrashError("injected crash mid-snapshot")
        super().write_bytes(path, payload)

    def fsync(self, handle) -> None:
        # No real fsync (a crashed handle must not double-fault): the
        # unbuffered writes are in the file, so its size is what a real
        # one would have made durable.
        self._synced[handle.path] = os.path.getsize(handle.path)

    def fsync_dir(self, path: str) -> None:
        self.synced_dirs.append(path)

    def power_loss(self) -> None:
        """Kill the process and drop every appended byte never fsynced."""
        self.budget = -1
        for path, length in self._synced.items():
            with open(path, "r+b") as handle:
                handle.truncate(length)


def _encode_record(lsn: int, kind: str, payload) -> bytes:
    body = json.dumps([lsn, kind, payload], separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _decode_line(line: bytes):
    """``(lsn, kind, payload)`` of a complete WAL line, or None if bad."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) != crc:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if not (isinstance(record, list) and len(record) == 3):
        return None
    return record[0], record[1], record[2]


def _valid_records(raw: bytes, expected_lsn: int):
    """``(end offset, (lsn, kind, payload))`` over *raw*'s valid prefix.

    Stops at the first record that is unterminated, CRC-bad, malformed
    or out of LSN sequence — the torn-tail rule.
    """
    offset = 0
    while True:
        end = raw.find(b"\n", offset)
        if end < 0:
            return  # torn final record: no newline ever made it out
        decoded = _decode_line(raw[offset:end])
        if decoded is None or decoded[0] != expected_lsn:
            return
        offset = end + 1
        expected_lsn += 1
        yield offset, decoded


class WriteAheadLog:
    """Append-only CRC-framed event log with torn-tail truncation.

    One line per record: ``crc32(body) <space> body``, where the body is
    compact JSON ``[lsn, kind, payload]``.  LSN 0 is the header record
    (format name, version, store configuration); event records follow
    with consecutive LSNs.  Opening an existing log scans it, keeps the
    longest valid prefix (CRC-good, newline-terminated, consecutive
    LSNs) and truncates the rest — the torn-tail rule.

    The log object holds the records its open-time scan found (what
    :func:`recover` replays) and nothing it appends afterwards: a
    long-lived writer does not keep a second copy of every description.

    Args:
        path: log file path (created on first append).
        fsync_every: fsync after every N *acknowledged* appends; 1
            (default) is the durable-per-event setting, 0 defers to
            :meth:`close`.
        files: file-operation layer (fault-injection seam).
    """

    def __init__(
        self, path: str, fsync_every: int = 1, files: OsFiles | None = None
    ) -> None:
        self.path = path
        self.files = files or OsFiles()
        self.fsync_every = max(int(fsync_every), 0)
        #: observability handle (the owning controller re-points this)
        self.obs = DISABLED
        self.header: dict | None = None
        #: event records found by the open-time scan (header excluded)
        self._scanned: list[tuple[int, str, object]] = []
        #: file offset where the scanned prefix (header included) ends
        self._scanned_end = 0
        self._next_lsn = 0
        #: acknowledged appends since the last fsync
        self._since_fsync = 0
        #: bytes were written since the last fsync
        self._unsynced = False
        self._scan_and_truncate()
        self._file = None

    # -- open-time scan ------------------------------------------------------

    def _scan_and_truncate(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        for end, (lsn, kind, payload) in _valid_records(raw, 0):
            if lsn == 0:
                if (
                    kind != "header"
                    or not isinstance(payload, dict)
                    or payload.get("format") != WAL_FORMAT
                    or payload.get("version") != WAL_VERSION
                ):
                    break
                self.header = payload
            else:
                self._scanned.append((lsn, kind, payload))
            self._scanned_end = end
        self._next_lsn = len(self._scanned) + (self.header is not None)
        if self._scanned_end < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(self._scanned_end)

    # -- append path ---------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the last valid record (0 = header only or empty)."""
        return max(self._next_lsn - 1, 0)

    @property
    def record_count(self) -> int:
        """Event records in the log (header excluded)."""
        return self.last_lsn

    def records(self, after_lsn: int = 0):
        """Event records with ``lsn > after_lsn``, in LSN order.

        The log as it is on disk: the scanned prefix, then whatever was
        appended since, read back from the file.
        """
        found = [record for record in self._scanned if record[0] > after_lsn]
        due = len(self._scanned) + 1
        if self._next_lsn > due:
            with open(self.path, "rb") as handle:
                handle.seek(self._scanned_end)
                raw = handle.read()
            found += [
                record
                for _end, record in _valid_records(raw, due)
                if record[0] > after_lsn
            ]
        return found

    def _handle(self):
        if self._file is None or getattr(self._file, "closed", False):
            self._file = self.files.open_append(self.path)
        return self._file

    def write_header(self, config: dict) -> None:
        """Write the versioned header record (must be the first write)."""
        if self._next_lsn != 0:
            raise ValueError("WAL already has a header")
        payload = {"format": WAL_FORMAT, "version": WAL_VERSION, **config}
        encoded = _encode_record(0, "header", payload)
        self._handle().write(encoded)
        self._scanned_end = len(encoded)
        self._unsynced = True
        self.header = payload
        self._next_lsn = 1
        self.sync()  # and the log's directory entry, or power loss can drop the file
        self.files.fsync_dir(os.path.dirname(os.path.abspath(self.path)))

    def append(self, kind: str, payload, acknowledged: bool = True) -> int:
        """Append one event record; returns its LSN.

        The record reaches the OS before this returns (unbuffered
        write).  An *acknowledged* record — a mutation someone was told
        had happened — counts towards the ``fsync_every`` batching and
        reaches the platter with it; any other record rides on the next
        sync.
        """
        if self._next_lsn == 0:
            raise ValueError("write the WAL header before appending events")
        lsn = self._next_lsn
        encoded = _encode_record(lsn, kind, payload)
        self._handle().write(encoded)
        self._unsynced = True
        if self.obs.enabled:
            self.obs.count("repro.durability.wal.append.count")
            self.obs.count("repro.durability.wal.append.bytes", len(encoded))
        self._next_lsn = lsn + 1
        if acknowledged:
            self._since_fsync += 1
            if self.fsync_every and self._since_fsync >= self.fsync_every:
                self.sync()
        return lsn

    def sync(self) -> None:
        """Force the log to stable storage now (a no-op when it is)."""
        if (
            self._unsynced
            and self._file is not None
            and not getattr(self._file, "closed", True)
        ):
            with self.obs.timed(metric="repro.durability.wal.fsync.seconds"):
                self.files.fsync(self._file)
        self._unsynced = False
        self._since_fsync = 0

    def close(self) -> None:
        """Sync and close — the clean-shutdown path."""
        if self._file is not None and not getattr(self._file, "closed", True):
            self.files.fsync(self._file)
            self._file.close()
        self._file = None

    def abandon(self) -> None:
        """Close without syncing — simulates dying with the OS cache warm."""
        if self._file is not None and not getattr(self._file, "closed", True):
            self._file.close()
        self._file = None


# -- component-state serialization ------------------------------------------


def _describe(description: EntityDescription) -> list:
    return [description.uri, description.attributes(), description.source]


def _restore_description(payload: list) -> EntityDescription:
    return EntityDescription(payload[0], payload[1], source=payload[2])


def _capture_factors(table) -> dict:
    return {
        "placements": {str(k): v for k, v in table.placements.items()},
        "degrees": {str(k): v for k, v in table.degrees.items()},
        "active_blocks": table.active_blocks,
        "total_assignments": table.total_assignments,
        "entities_placed": table.entities_placed,
        "edge_count": table.edge_count,
    }


def _restore_factors(table, state: dict) -> None:
    table.placements = {int(k): v for k, v in state["placements"].items()}
    table.degrees = {int(k): v for k, v in state["degrees"].items()}
    table.active_blocks = state["active_blocks"]
    table.total_assignments = state["total_assignments"]
    table.entities_placed = state["entities_placed"]
    table.edge_count = state["edge_count"]


def capture_state(
    store: StreamingEntityStore,
    index: IncrementalBlockIndex,
    pairs: DeltaPairTable | None,
    view: IncrementalProcessedView | None = None,
    view_pairs: DeltaPairTable | None = None,
) -> dict:
    """The full serializable state of the streaming component stack.

    A stack holds one statistics table — *pairs* without a view,
    *view_pairs* with one — and the other is captured as ``None``.

    JSON-safe and canonical (sets are sorted), so two captures compare
    with ``==`` — the bit-identity check the crash-recovery gate uses —
    and a capture rebuilt by :func:`restore_components` captures back
    equal.  Derived caches (snapshots, vectors) are intentionally
    excluded: they are recomputed on demand and never observable.
    """
    state: dict = {
        "store": {
            "name": store.name,
            "version": store.version,
            "interner": store.interner.uris(),
            "collections": [
                {
                    "name": collection.name,
                    "interner": collection.interner.uris(),
                    "live": [
                        _describe(description) for description in collection
                    ],
                }
                for collection in store.collections
            ],
        },
        "index": {
            "postings": {
                key: [sides[0].tolist(), sides[1].tolist()]
                for key, sides in index._postings.items()
            },
            "unsorted": dict(index._unsorted),
            "resort_count": index.resort_count,
            "key_mask": {
                str(entity): dict(masks)
                for entity, masks in index._key_mask.items()
            },
            "side_seq": [
                {str(entity): rank for entity, rank in seq.items()}
                for seq in index._side_seq
            ],
            "overlap": dict(index._overlap),
        },
        "pairs": _capture_factors(pairs) if pairs is not None else None,
        "view": None,
        "view_pairs": None,
    }
    if view is not None:
        state["view"] = {
            "purging": {
                "max_cardinality": view.purging.max_cardinality,
                "smoothing": view.purging.smoothing,
            },
            "filtering": {"ratio": view.filtering.ratio},
            "reconcile_every": view.reconcile_every,
            "reconcile_count": view.reconcile_count,
            "pending_keys": list(view._pending_keys),
            "pending_entities": [str(e) for e in view._pending_entities],
            "card": {key: list(entry) for key, entry in view._card.items()},
            "hist": {
                str(level): [assigns, sorted(keys)]
                for level, (assigns, keys) in view._hist.items()
            },
            "threshold": view._threshold,
            "threshold_dirty": view._threshold_dirty,
            "retained": {
                str(entity): sorted(keys)
                for entity, keys in view._retained.items()
            },
            "members": {
                key: [sorted(sides[0]), sorted(sides[1])]
                for key, sides in view._members.items()
            },
            "present": sorted(view._present),
            "entity_keys": {
                str(entity): dict(masks)
                for entity, masks in view._entity_keys.items()
            },
            "reconciled_version": view._reconciled_version,
        }
    if view_pairs is not None:
        state["view_pairs"] = _capture_factors(view_pairs)
    return state


def restore_components(
    state: dict, blocker: Blocker | None = None
) -> tuple[
    StreamingEntityStore,
    IncrementalBlockIndex,
    DeltaPairTable | None,
    IncrementalProcessedView | None,
    DeltaPairTable | None,
]:
    """Rebuild the component stack from a :func:`capture_state` dict.

    The inverse of :func:`capture_state`: no events are replayed — every
    structure is deserialized field by field, so restoring costs O(state
    size) regardless of how long the history that produced it was.
    """
    s = state["store"]
    store = StreamingEntityStore(
        sources=[c["name"] for c in s["collections"]], name=s["name"]
    )
    for uri in s["interner"]:
        store.interner.intern(uri)
    for collection, captured in zip(store.collections, s["collections"]):
        for uri in captured["interner"]:
            collection.interner.intern(uri)
        for payload in captured["live"]:
            collection._by_uri[payload[0]] = _restore_description(payload)
    store.version = s["version"]

    index = IncrementalBlockIndex(store, blocker)
    i = state["index"]
    index._postings = {
        key: (
            array(_POSTING_TYPECODE, sides[0]),
            array(_POSTING_TYPECODE, sides[1]),
        )
        for key, sides in i["postings"].items()
    }
    index._unsorted = dict(i["unsorted"])
    index.resort_count = i["resort_count"]
    index._key_mask = {
        int(entity): dict(masks) for entity, masks in i["key_mask"].items()
    }
    index._side_seq = [
        {int(entity): rank for entity, rank in seq.items()}
        for seq in i["side_seq"]
    ]
    index._overlap = dict(i["overlap"])

    # A ``common`` dict in an older document (``pairs`` in version 1,
    # ``view_pairs`` in 1 and 2) is ignored: the postings hold it.  So
    # is the raw table a version 1 – 3 document carries beside a view.
    pairs = None
    view = None
    view_pairs = None
    if state.get("view") is None:
        pairs = DeltaPairTable(index)
        _restore_factors(pairs, state["pairs"])
    else:
        v = state["view"]
        view = IncrementalProcessedView(
            index,
            BlockPurging(
                max_cardinality=v["purging"]["max_cardinality"],
                smoothing=v["purging"]["smoothing"],
            ),
            BlockFiltering(ratio=v["filtering"]["ratio"]),
            reconcile_every=v["reconcile_every"],
        )
        view.reconcile_count = v["reconcile_count"]
        view._pending_keys = dict.fromkeys(v["pending_keys"])
        view._pending_entities = dict.fromkeys(
            int(entity) for entity in v["pending_entities"]
        )
        view._card = {key: tuple(entry) for key, entry in v["card"].items()}
        view._hist = {
            int(level): [assigns, set(keys)]
            for level, (assigns, keys) in v["hist"].items()
        }
        view._threshold = v["threshold"]
        view._threshold_dirty = v["threshold_dirty"]
        view._retained = {
            int(entity): frozenset(keys)
            for entity, keys in v["retained"].items()
        }
        view._members = {
            key: (set(sides[0]), set(sides[1]))
            for key, sides in v["members"].items()
        }
        view._present = set(v["present"])
        view._entity_keys = {
            int(entity): dict(masks)
            for entity, masks in v["entity_keys"].items()
        }
        view._reconciled_version = v["reconciled_version"]
        if state.get("view_pairs") is not None:
            view_pairs = DeltaPairTable(view)
            _restore_factors(view_pairs, state["view_pairs"])
    return store, index, pairs, view, view_pairs


# -- snapshots ---------------------------------------------------------------


def _snapshot_path(directory: str, lsn: int) -> str:
    return os.path.join(
        directory, f"{_SNAPSHOT_PREFIX}{lsn:012d}{_SNAPSHOT_SUFFIX}"
    )


def write_snapshot(
    directory: str,
    lsn: int,
    state: dict,
    config: dict,
    files: OsFiles | None = None,
) -> str:
    """Atomically write a CRC-framed snapshot at *lsn*; returns its path.

    The document lands in a ``.tmp`` file first and is renamed into
    place only when complete — a crash mid-write leaves a temp file
    recovery ignores, never a half-readable snapshot.
    """
    files = files or OsFiles()
    body = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "lsn": lsn,
            "config": config,
            "state": state,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    payload = b"%08x %s" % (zlib.crc32(body), body)
    path = _snapshot_path(directory, lsn)
    temp = path + ".tmp"
    files.write_bytes(temp, payload)
    files.replace(temp, path)
    files.fsync_dir(directory)
    return path


def load_snapshot(path: str) -> dict | None:
    """Parse + CRC-verify one snapshot file; None when invalid."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    if len(raw) < 10 or raw[8:9] != b" ":
        return None
    body = raw[9:]
    try:
        if zlib.crc32(body) != int(raw[:8], 16):
            return None
        document = json.loads(body)
    except ValueError:
        return None
    if not isinstance(document, dict):
        return None
    if document.get("format") != SNAPSHOT_FORMAT:
        return None
    if document.get("version") not in _READABLE_SNAPSHOT_VERSIONS:
        return None
    return document


def list_snapshots(directory: str) -> list[str]:
    """Snapshot file paths in the directory, newest (highest LSN) first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    names = [
        name
        for name in names
        if name.startswith(_SNAPSHOT_PREFIX)
        and name.endswith(_SNAPSHOT_SUFFIX)
    ]
    return [os.path.join(directory, name) for name in sorted(names, reverse=True)]


# -- the durability controller ----------------------------------------------


class Durability:
    """Write-ahead logging + periodic snapshots for one component stack.

    Args:
        directory: where the WAL and snapshots live (created if absent).
        fsync_every: WAL fsync batching (1 = durable per event).
        snapshot_every: snapshot after this many WAL records since the
            last snapshot; None disables periodic snapshots (the WAL
            alone still recovers, by replaying the full history).
        keep_snapshots: retained snapshot generations (older pruned).
        files: file-operation layer (fault-injection seam).

    Attach to a live stack with :meth:`bind`; from then on the store
    logs every insert/delete through :meth:`log_insert` /
    :meth:`log_delete` *before* applying it, and offers
    :meth:`maybe_snapshot` after each event has fully propagated.
    """

    def __init__(
        self,
        directory: str,
        fsync_every: int = 1,
        snapshot_every: int | None = None,
        keep_snapshots: int = 2,
        files: OsFiles | None = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1 (or None)")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.files = files or OsFiles()
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_NAME), fsync_every, self.files
        )
        self.snapshot_every = snapshot_every
        self.keep_snapshots = max(keep_snapshots, 1)
        self.snapshots_written = 0
        self.last_snapshot_lsn = 0
        for path in list_snapshots(directory):
            document = load_snapshot(path)
            if document is None:
                continue
            if document["lsn"] > self.wal.last_lsn:
                # A snapshot of a history the log never durably reached
                # (written before snapshots synced the log first): new
                # appends would reuse its LSNs for other events.
                os.remove(path)
                continue
            self.last_snapshot_lsn = document["lsn"]
            break
        self._components = None
        self._obs = DISABLED

    @property
    def obs(self) -> Observability:
        """Observability handle; assigning propagates it into the WAL."""
        return self._obs

    @obs.setter
    def obs(self, value: Observability) -> None:
        self._obs = value if value is not None else DISABLED
        self.wal.obs = self._obs

    def bind(
        self,
        store: StreamingEntityStore,
        index: IncrementalBlockIndex | None = None,
        pairs: DeltaPairTable | None = None,
        view: IncrementalProcessedView | None = None,
        view_pairs: DeltaPairTable | None = None,
    ) -> None:
        """Wire the controller to a live stack and claim the store.

        Writes the versioned WAL header on a fresh log.  The store must
        be empty or recovered from this directory — binding a populated
        store to a fresh WAL would leave its history unlogged.

        Raises:
            ValueError: when the directory already holds a log and the
                store was not recovered from its tail — appending a
                second history would corrupt the first.
        """
        if self.wal.header is not None and store.recovered_lsn != self.wal.last_lsn:
            raise ValueError(
                f"durability directory {self.directory!r} already holds a "
                "write-ahead log; recover from it or use a fresh directory"
            )
        self._components = (store, index, pairs, view, view_pairs)
        store.durability = self
        if self.wal.header is None:
            config: dict = {
                "name": store.name,
                "sources": [c.name for c in store.collections],
                "view": None,
            }
            if view is not None:
                config["view"] = {
                    "max_cardinality": view.purging.max_cardinality,
                    "smoothing": view.purging.smoothing,
                    "ratio": view.filtering.ratio,
                    "reconcile_every": view.reconcile_every,
                }
            self.wal.write_header(config)
        if view is not None:
            view.subscribe_apply(self.log_apply)

    # -- event logging (called by the store, write-ahead) --------------------

    def log_insert(self, description: EntityDescription, source: int) -> int:
        return self.wal.append("insert", [_describe(description), source])

    def log_delete(self, uri: str) -> int:
        return self.wal.append("delete", [uri])

    def log_reconcile(self) -> int:
        """Log a processed-view reconciliation point.

        Reconciles mutate the view's survivor state, so recovery replays
        them at the same event positions to land on bit-identical view
        bookkeeping without re-running any query.  Written ahead like
        every record — the caller runs ``view.reconcile()`` after this
        returns, then offers :meth:`maybe_snapshot` (a snapshot at this
        LSN must already contain the reconcile's effects).  Not an
        acknowledgement: it rides on the next mutation's sync.
        """
        return self.wal.append("reconcile", [], acknowledged=False)

    def log_apply(self) -> int:
        """Log a processed-view pending-buffer drain.

        The approximate survivor state depends on *when* the buffer
        drains relative to the insert stream (a view read triggers it),
        so recovery replays drains at their original positions to land
        on bit-identical approximate state.  A query is a read, so the
        marker is written but not fsynced: it rides on the next
        mutation's sync, and a crash that loses a trailing run of
        markers leaves a state the uninterrupted run also passed
        through — the next read drains again.
        """
        return self.wal.append("apply", [], acknowledged=False)

    # -- snapshots -----------------------------------------------------------

    def maybe_snapshot(self) -> str | None:
        """Snapshot when the cadence knob says the WAL suffix is long enough."""
        if self.snapshot_every is None or self._components is None:
            return None
        if self.wal.last_lsn - self.last_snapshot_lsn < self.snapshot_every:
            return None
        return self.snapshot_now()

    def snapshot_now(self) -> str:
        """Capture + atomically write a snapshot at the current LSN."""
        if self._components is None:
            raise ValueError("bind() the durability controller first")
        store, index, pairs, view, view_pairs = self._components
        obs = self._obs
        # A snapshot never leads the durable log: recovery would restore
        # it into a history whose tail a power cut took away.
        self.wal.sync()
        with obs.span("durability.snapshot", lsn=self.wal.last_lsn):
            with obs.timed(
                metric="repro.durability.snapshot.capture.seconds"
            ):
                state = capture_state(store, index, pairs, view, view_pairs)
            path = write_snapshot(
                self.directory,
                self.wal.last_lsn,
                state,
                dict(self.wal.header or {}),
                self.files,
            )
        obs.count("repro.durability.snapshot.count")
        self.last_snapshot_lsn = self.wal.last_lsn
        self.snapshots_written += 1
        self._prune_snapshots()
        return path

    def _prune_snapshots(self) -> None:
        for path in list_snapshots(self.directory)[self.keep_snapshots:]:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: sync + close the WAL (recovery-ready)."""
        self.wal.close()

    def abandon(self) -> None:
        """Simulated crash: drop the WAL handle without syncing."""
        self.wal.abandon()


# -- recovery ----------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """How a :func:`recover` call rebuilt the state."""

    #: LSN of the snapshot restored (0 = recovered from the WAL alone)
    snapshot_lsn: int
    #: last valid WAL record (the recovered state reflects LSNs <= this)
    last_lsn: int
    #: WAL records re-applied (strictly fewer than the history when a
    #: snapshot was restored)
    replayed_events: int
    #: total event records in the WAL (the full history length)
    wal_records: int
    #: path of the snapshot used, if any
    snapshot_path: str | None


@dataclass(frozen=True)
class RecoveryResult:
    """The rebuilt component stack plus the recovery accounting."""

    store: StreamingEntityStore
    index: IncrementalBlockIndex
    #: the table the stack's queries read: ``pairs`` without a view,
    #: ``view_pairs`` with one (the other is None)
    pairs: DeltaPairTable | None
    view: IncrementalProcessedView | None
    view_pairs: DeltaPairTable | None
    report: RecoveryReport


def _fresh_components(config: dict, blocker: Blocker | None):
    store = StreamingEntityStore(
        sources=config.get("sources", ("stream",)),
        name=config.get("name", "stream"),
    )
    index = IncrementalBlockIndex(store, blocker)
    pairs = None
    view = None
    view_pairs = None
    view_config = config.get("view")
    if view_config is None:
        pairs = DeltaPairTable(index)
    else:
        view = IncrementalProcessedView(
            index,
            BlockPurging(
                max_cardinality=view_config["max_cardinality"],
                smoothing=view_config["smoothing"],
            ),
            BlockFiltering(ratio=view_config["ratio"]),
            reconcile_every=view_config["reconcile_every"],
        )
        view_pairs = DeltaPairTable(view)
    return store, index, pairs, view, view_pairs


def recover(
    directory: str,
    blocker: Blocker | None = None,
    files: OsFiles | None = None,
    from_scratch: bool = False,
    obs: Observability | None = None,
) -> RecoveryResult:
    """Rebuild the streaming state from *directory*'s snapshot + WAL.

    Picks the newest snapshot that is CRC-valid **and** not ahead of the
    (torn-tail-truncated) WAL, restores it by deserialization, then
    replays only the WAL records past the snapshot LSN — strictly fewer
    events than the full history whenever a snapshot was restored.
    ``from_scratch=True`` ignores snapshots and replays the whole WAL
    (the independent reference the fault-injection harness diffs
    against).

    Raises:
        FileNotFoundError: when the directory holds no usable WAL.
    """
    obs = obs if obs is not None else DISABLED
    wal = WriteAheadLog(os.path.join(directory, WAL_NAME), 0, files)
    if wal.header is None:
        raise FileNotFoundError(f"no usable write-ahead log in {directory!r}")

    with obs.span("durability.recover") as recover_span:
        snapshot_lsn = 0
        snapshot_path = None
        components = None
        if not from_scratch:
            for path in list_snapshots(directory):
                document = load_snapshot(path)
                if document is None or document["lsn"] > wal.last_lsn:
                    continue
                with obs.timed(
                    metric="repro.durability.snapshot.restore.seconds"
                ):
                    components = restore_components(document["state"], blocker)
                snapshot_lsn = document["lsn"]
                snapshot_path = path
                break
        if components is None:
            components = _fresh_components(wal.header, blocker)
        store, index, pairs, view, view_pairs = components

        replayed = 0
        for _lsn, kind, payload in wal.records(after_lsn=snapshot_lsn):
            if kind == "insert":
                store.insert(_restore_description(payload[0]), payload[1])
            elif kind == "delete":
                store.delete(payload[0])
            elif kind == "reconcile":
                if view is not None:
                    view.reconcile()
            elif kind == "apply":
                if view is not None:
                    view._apply_pending()
            else:
                raise ValueError(f"unknown WAL record kind {kind!r}")
            replayed += 1
        obs.count("repro.durability.recover.replayed.count", replayed)
        recover_span.set(snapshot_lsn=snapshot_lsn, replayed=replayed)
    wal.close()
    store.recovered_lsn = wal.last_lsn
    return RecoveryResult(
        store=store,
        index=index,
        pairs=pairs,
        view=view,
        view_pairs=view_pairs,
        report=RecoveryReport(
            snapshot_lsn=snapshot_lsn,
            last_lsn=wal.last_lsn,
            replayed_events=replayed,
            wal_records=wal.record_count,
            snapshot_path=snapshot_path,
        ),
    )
