"""Fault-injection harness for the durability layer.

The crash-recovery gate: kill a durable workload replay at arbitrary
event indices — clean abandons, torn byte-budget crashes, and a crash
mid-snapshot — and assert that :func:`repro.stream.durability.recover`
rebuilds state **bit-identical** to an uninterrupted in-memory replay
of the surviving prefix, for every corpus × scenario combination.

Three independent oracles keep the check non-circular:

* a fresh in-memory resolver replaying the same event prefix (validates
  that the WAL captured every state-bearing transition);
* ``recover(from_scratch=True)`` — full-WAL replay, no snapshot
  (validates snapshot serialization against pure log replay);
* the live pre-crash capture, for clean-shutdown round trips.

Plus WAL-level unit coverage: CRC framing, torn-tail truncation,
header versioning, fsync batching, snapshot atomicity and pruning.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import pytest

from repro.datasets import load_movies, load_people, load_restaurants
from repro.model.description import EntityDescription
from repro.stream import StreamResolver, WorkloadDriver
from repro.stream.durability import (
    CrashError,
    CrashyFiles,
    Durability,
    OsFiles,
    WriteAheadLog,
    capture_state,
    list_snapshots,
    load_snapshot,
    recover,
    write_snapshot,
)
from repro.stream.workload import SCENARIOS

_LOADERS = {
    "restaurants": load_restaurants,
    "movies": load_movies,
    "people": load_people,
}
_CORPUS_CACHE: dict[str, tuple] = {}

#: scenarios the acceptance gate runs (erasure is covered separately by
#: the processed-view equivalence suite; churn exercises deletions here)
GATE_SCENARIOS = ("uniform", "bursty", "skewed", "churn")


def _corpus(name: str):
    if name not in _CORPUS_CACHE:
        kb1, kb2, _gold = _LOADERS[name]()
        _CORPUS_CACHE[name] = (kb1, kb2)
    return _CORPUS_CACHE[name]


def _events(corpus_name: str, scenario: str, limit: int = 90):
    kb1, kb2 = _corpus(corpus_name)
    return SCENARIOS[scenario](kb1, kb2)[:limit]


def _capture(stack) -> dict:
    """capture_state() of anything exposing the five components."""
    return capture_state(
        stack.store, stack.index, stack.pairs, stack.view, stack.view_pairs
    )


def _replay(events, durability=None, processed_view=False) -> StreamResolver:
    resolver = StreamResolver(
        clean_clean=True,
        processed_view=processed_view,
        reconcile_every=10 if processed_view else None,
        durability=durability,
    )
    WorkloadDriver(resolver).run(events, scenario="crash-test")
    return resolver


# -- WAL unit coverage -------------------------------------------------------


class TestWriteAheadLog:
    def _fresh(self, tmp_path, **kwargs) -> WriteAheadLog:
        return WriteAheadLog(str(tmp_path / "wal.log"), **kwargs)

    def test_roundtrip_and_reopen(self, tmp_path):
        wal = self._fresh(tmp_path)
        wal.write_header({"name": "s", "sources": ["a"], "view": None})
        assert wal.append("insert", [["u1", {}, 0], 0]) == 1
        assert wal.append("delete", ["u1"]) == 2
        wal.close()

        reopened = self._fresh(tmp_path)
        assert reopened.header is not None
        assert reopened.header["name"] == "s"
        assert reopened.last_lsn == 2
        assert reopened.record_count == 2
        assert [k for _l, k, _p in reopened.records()] == ["insert", "delete"]
        # appending continues at the next LSN
        assert reopened.append("reconcile", []) == 3
        reopened.close()

    def test_records_after_lsn_filters(self, tmp_path):
        """records() is the log as it is on disk, whoever wrote it."""
        wal = self._fresh(tmp_path)
        wal.write_header({})
        for i in range(5):
            wal.append("insert", [i])
        assert [p for _l, _k, p in wal.records(after_lsn=3)] == [[3], [4]]
        wal.close()
        reopened = self._fresh(tmp_path)
        reopened.append("insert", [5])  # past what the open-time scan saw
        assert [p for _l, _k, p in reopened.records(after_lsn=3)] == [[3], [4], [5]]
        assert reopened.record_count == 6
        reopened.close()

    def test_appends_are_not_retained(self, tmp_path):
        """A live log is not a second copy of everything it was given."""
        wal = self._fresh(tmp_path, fsync_every=0)
        wal.write_header({})
        for i in range(2000):
            wal.append("insert", [["http://e/%d" % i, {"p": ["v"]}, ""], 0])
        assert wal.record_count == wal.last_lsn == 2000
        retained = [
            value
            for value in vars(wal).values()
            if isinstance(value, (list, dict, tuple))
            and value is not wal.header
        ]
        assert sum(len(value) for value in retained) == 0
        assert len(wal.records()) == 2000
        wal.close()

    def test_append_requires_header(self, tmp_path):
        wal = self._fresh(tmp_path)
        with pytest.raises(ValueError, match="header"):
            wal.append("insert", [])

    def test_double_header_rejected(self, tmp_path):
        wal = self._fresh(tmp_path)
        wal.write_header({})
        with pytest.raises(ValueError, match="header"):
            wal.write_header({})
        wal.close()

    def test_torn_tail_truncated(self, tmp_path):
        wal = self._fresh(tmp_path)
        wal.write_header({})
        wal.append("insert", ["a"])
        wal.append("insert", ["b"])
        wal.close()
        path = tmp_path / "wal.log"
        intact = path.read_bytes()
        # A power cut mid-append: a partial record with no newline.
        path.write_bytes(intact + b"00000000 [3,\"ins")

        reopened = self._fresh(tmp_path)
        assert reopened.record_count == 2
        assert reopened.last_lsn == 2
        # ...and the file itself was physically truncated back.
        assert path.read_bytes() == intact
        reopened.close()

    def test_crc_corruption_truncates_suffix(self, tmp_path):
        wal = self._fresh(tmp_path)
        wal.write_header({})
        for value in ("a", "b", "c"):
            wal.append("insert", [value])
        wal.close()
        path = tmp_path / "wal.log"
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        # Flip one body byte of record 2 (index 2: header, rec1, rec2).
        corrupt = bytearray(lines[2])
        corrupt[-2] ^= 0xFF
        lines[2] = bytes(corrupt)
        path.write_bytes(b"\n".join(lines))

        reopened = self._fresh(tmp_path)
        # The valid prefix survives; the corrupt record AND everything
        # after it (LSN continuity is broken) are gone.
        assert [p for _l, _k, p in reopened.records()] == [["a"]]
        assert reopened.last_lsn == 1
        reopened.close()

    def test_foreign_header_rejected(self, tmp_path):
        body = b'[0,"header",{"format":"not-a-wal","version":1}]'
        (tmp_path / "wal.log").write_bytes(
            b"%08x %s\n" % (zlib.crc32(body), body)
        )
        wal = self._fresh(tmp_path)
        assert wal.header is None
        assert wal.record_count == 0
        with pytest.raises(FileNotFoundError):
            recover(str(tmp_path))

    def test_fsync_batching(self, tmp_path):
        class CountingFiles(OsFiles):
            def __init__(self):
                self.fsyncs = 0

            def fsync(self, handle):
                self.fsyncs += 1

        files = CountingFiles()
        wal = self._fresh(tmp_path, fsync_every=3, files=files)
        wal.write_header({})  # syncs once
        after_header = files.fsyncs
        for i in range(7):
            wal.append("insert", [i])
        # batched: appends 3 and 6 sync
        assert files.fsyncs == after_header + 2
        wal.close()  # clean shutdown always syncs
        assert files.fsyncs == after_header + 3

        deferred = WriteAheadLog(
            str(tmp_path / "deferred.log"), fsync_every=0, files=files
        )
        deferred.write_header({})
        base = files.fsyncs
        for i in range(10):
            deferred.append("insert", [i])
        assert files.fsyncs == base  # 0 = only close() syncs
        deferred.close()
        assert files.fsyncs == base + 1


# -- snapshot files ----------------------------------------------------------


class TestSnapshots:
    def test_write_load_roundtrip(self, tmp_path):
        state = {"store": {"x": [1, 2, 3]}}
        path = write_snapshot(str(tmp_path), 42, state, {"name": "s"})
        document = load_snapshot(path)
        assert document is not None
        assert document["lsn"] == 42
        assert document["state"] == state
        assert document["config"] == {"name": "s"}
        assert list_snapshots(str(tmp_path)) == [path]

    def test_corrupt_snapshot_loads_as_none(self, tmp_path):
        path = write_snapshot(str(tmp_path), 7, {"a": 1}, {})
        raw = bytearray(open(path, "rb").read())
        raw[-3] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        assert load_snapshot(path) is None

    def test_listing_is_newest_first(self, tmp_path):
        paths = [
            write_snapshot(str(tmp_path), lsn, {}, {}) for lsn in (5, 80, 19)
        ]
        assert list_snapshots(str(tmp_path)) == [paths[1], paths[2], paths[0]]

    def test_torn_snapshot_write_leaves_only_tmp(self, tmp_path):
        """Atomicity: a crash mid-write never produces a readable file."""
        big_state = {"store": {"live": ["x" * 40] * 50}}
        with pytest.raises(CrashError):
            write_snapshot(
                str(tmp_path), 9, big_state, {}, files=CrashyFiles(budget=64)
            )
        names = os.listdir(tmp_path)
        assert names == ["snapshot-000000000009.json.tmp"]
        assert list_snapshots(str(tmp_path)) == []


# -- the crash-recovery gate -------------------------------------------------


@pytest.mark.parametrize("corpus_name", sorted(_LOADERS))
@pytest.mark.parametrize("scenario", GATE_SCENARIOS)
def test_crash_gate_bit_identical(tmp_path, corpus_name, scenario):
    """Abandon at 1/3 and 2/3 of the stream; recovery must be exact.

    One corpus runs with the processed view attached so reconcile and
    pending-drain ("apply") records are part of the replayed history.
    """
    events = _events(corpus_name, scenario)
    processed_view = corpus_name == "restaurants"
    for fraction, boundary in ((1, 3), (2, 3)):
        n = max(1, len(events) * fraction // boundary)
        directory = str(tmp_path / f"crash-{fraction}of{boundary}")
        prefix = events[:n]

        durable = _replay(
            prefix,
            durability=Durability(directory, snapshot_every=12),
            processed_view=processed_view,
        )
        assert durable.durability is not None
        durable.durability.abandon()  # die without the clean-shutdown sync

        recovered = recover(directory)
        reference = _replay(prefix, processed_view=processed_view)
        assert _capture(recovered) == _capture(reference), (
            corpus_name,
            scenario,
            n,
        )
        # The snapshot path must agree with pure full-WAL replay.
        scratch = recover(directory, from_scratch=True)
        assert _capture(recovered) == _capture(scratch)
        assert scratch.report.snapshot_lsn == 0
        assert scratch.report.replayed_events == scratch.report.wal_records

        report = recovered.report
        assert report.last_lsn == report.wal_records  # nothing torn
        if report.snapshot_lsn > 0:
            # The acceptance gate: recovery replays strictly fewer
            # events than the full history once a snapshot exists.
            assert report.replayed_events < report.wal_records


def test_deep_crash_recovers_strictly_fewer_events(tmp_path):
    """Late crash indices must always have a snapshot to restore from."""
    events = _events("restaurants", "churn", limit=80)
    directory = str(tmp_path / "deep")
    durable = _replay(events, durability=Durability(directory, snapshot_every=10))
    durable.durability.abandon()
    recovered = recover(directory)
    report = recovered.report
    assert report.snapshot_lsn > 0
    assert report.replayed_events < report.wal_records
    assert _capture(recovered) == _capture(_replay(events))


@pytest.mark.parametrize(
    "corpus_name, scenario", [("movies", "uniform"), ("restaurants", "churn")]
)
def test_clean_shutdown_roundtrip_matches_live_state(tmp_path, corpus_name, scenario):
    """close() then recover() equals the live pre-shutdown capture.

    No normalisation: under churn the live view carries empty entries
    for deleted entities that the recovered view (snapshot + a full
    reconcile in the replayed suffix) has dropped, and the two captures
    must still compare equal.
    """
    events = _events(corpus_name, scenario, limit=90)
    directory = str(tmp_path / "clean")
    durable = _replay(
        events,
        durability=Durability(directory, snapshot_every=15),
        processed_view=True,
    )
    live = _capture(durable)
    durable.close()
    recovered = recover(directory)
    assert _capture(recovered) == live


def test_recovery_paths_agree_after_a_late_key_merge_past_the_snapshot(tmp_path):
    """``recover()``, ``recover(from_scratch=True)`` and the live run are
    one state — on the whole ``capture_state``.

    The first reconcile after a snapshot restore is a full one; it used
    to end in ``snapshot_processed()``, which re-sorted the straggler
    postings of a late-key merge that a replay and the live run (on
    their partial reconciles) still deferred: ``unsorted == {}``,
    ``resort_count == 2`` and ``gamma`` posted ``[0, 2, 4]`` on the
    restored path against ``{gamma, omega}``, ``0`` and ``[2, 4, 0]``
    on the other two.  A reconcile builds no snapshot now.
    """

    def described(uri: str, text: str) -> EntityDescription:
        return EntityDescription(uri, {"p": [text]})

    directory = str(tmp_path / "late-key")
    live = StreamResolver(
        clean_clean=True,
        processed_view=True,
        reconcile_every=3,
        durability=Durability(directory),
    )
    live.ingest(described("a/1", "alpha beta"), 0)
    live.ingest(described("b/1", "alpha beta gamma"), 1)
    live.ingest(described("a/2", "gamma delta"), 0)
    live.ingest(described("b/2", "delta beta"), 1)
    live.resolve(described("a/1", "alpha beta"), source=0, ingest=False)
    live.durability.snapshot_now()
    live.ingest(described("a/3", "gamma"), 0)
    live.ingest(described("a/4", "omega delta"), 0)
    live.ingest(described("a/1", "omega gamma"), 0)  # the late-key merge
    live.ingest(described("b/3", "omega"), 1)
    live.resolve(described("b/3", "omega"), source=1, ingest=False)
    assert live.view.last_report.mode == "partial"
    uninterrupted = _capture(live)
    live.close()

    restored = recover(directory)
    assert restored.report.snapshot_lsn > 0
    assert restored.view.last_report.mode == "full"
    replayed = recover(directory, from_scratch=True)
    assert _capture(restored) == uninterrupted == _capture(replayed)
    index = uninterrupted["index"]
    assert index["unsorted"] == {"gamma": 1, "omega": 1}
    assert index["resort_count"] == 0
    assert index["postings"]["gamma"] == [[2, 4, 0], [1]]


@pytest.mark.parametrize("budget", [260, 900, 2600])
def test_byte_budget_crash_keeps_surviving_prefix(tmp_path, budget):
    """A torn write at an arbitrary byte offset never poisons recovery.

    The torn record is truncated on open; whatever prefix survived must
    recover identically through the snapshot path and full-WAL replay,
    and contain only entities the interrupted run actually ingested.
    """
    events = _events("restaurants", "churn", limit=70)
    directory = str(tmp_path / "torn")
    resolver = StreamResolver(
        clean_clean=True,
        durability=Durability(
            directory, snapshot_every=8, files=CrashyFiles(budget=budget)
        ),
    )
    crashed = False
    try:
        for event in events:
            if event.kind == "insert":
                resolver.ingest(event.description, event.source)
            elif event.kind == "delete":
                resolver.delete(event.description.uri)
            else:
                resolver.resolve(
                    event.description, source=event.source, ingest=True
                )
    except CrashError:
        crashed = True
    assert crashed, "byte budget outlasted the replay — lower it"

    recovered = recover(directory)
    scratch = recover(directory, from_scratch=True)
    assert _capture(recovered) == _capture(scratch)
    ingested = {event.description.uri for event in events}
    for collection in recovered.store.collections:
        assert {d.uri for d in collection} <= ingested
    assert recovered.report.wal_records == recovered.report.last_lsn


def test_crash_mid_snapshot_falls_back_to_wal(tmp_path):
    """Dying inside the snapshot write leaves a .tmp recovery ignores."""

    class TearFirstSnapshot(OsFiles):
        """Plain I/O until the first snapshot write, which is torn."""

        def __init__(self):
            self.torn = False

        def write_bytes(self, path, payload):
            if not self.torn:
                self.torn = True
                with open(path, "wb") as handle:
                    handle.write(payload[: len(payload) // 2])
                raise CrashError("injected crash mid-snapshot")
            super().write_bytes(path, payload)

    events = _events("restaurants", "uniform", limit=50)
    directory = str(tmp_path / "midsnap")
    resolver = StreamResolver(
        clean_clean=True,
        processed_view=True,
        reconcile_every=10,
        durability=Durability(
            directory, snapshot_every=9, files=TearFirstSnapshot()
        ),
    )
    applied = []
    with pytest.raises(CrashError):
        for event in events:
            # The WAL record lands (write-ahead) and the event is fully
            # applied before maybe_snapshot() runs, so the event that
            # triggers the torn snapshot IS part of the durable prefix.
            applied.append(event)
            if event.kind == "insert":
                resolver.ingest(event.description, event.source)
            elif event.kind == "delete":
                resolver.delete(event.description.uri)
            else:
                resolver.resolve(
                    event.description, source=event.source, ingest=True
                )

    assert any(name.endswith(".tmp") for name in os.listdir(directory))
    assert list_snapshots(directory) == []  # the torn one is invisible

    recovered = recover(directory)
    reference = _replay(applied, processed_view=True)
    assert _capture(recovered) == _capture(reference)
    assert recovered.report.snapshot_lsn == 0  # fell back to the WAL


def test_recover_empty_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        recover(str(tmp_path))


def test_corrupt_newest_snapshot_falls_back_to_older(tmp_path):
    """Recovery skips CRC-invalid snapshots, restoring the next valid one."""
    events = _events("restaurants", "uniform", limit=60)
    directory = str(tmp_path / "gen")
    durable = _replay(
        events, durability=Durability(directory, snapshot_every=8)
    )
    assert durable.durability.snapshots_written >= 2
    durable.close()

    newest, older = list_snapshots(directory)[:2]
    raw = bytearray(open(newest, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    with open(newest, "wb") as handle:
        handle.write(bytes(raw))

    recovered = recover(directory)
    assert recovered.report.snapshot_path == older
    assert recovered.report.replayed_events < recovered.report.wal_records
    assert _capture(recovered) == _capture(_replay(events))


def test_snapshot_pruning_keeps_configured_generations(tmp_path):
    events = _events("restaurants", "uniform", limit=70)
    directory = str(tmp_path / "prune")
    durable = _replay(
        events,
        durability=Durability(directory, snapshot_every=6, keep_snapshots=2),
    )
    assert durable.durability.snapshots_written > 2
    assert len(list_snapshots(directory)) == 2
    durable.close()


def test_resume_after_recovery_continues_the_log(tmp_path):
    """recover(resume=True) keeps logging; a later recovery sees it all."""
    events = _events("restaurants", "uniform", limit=30)
    directory = str(tmp_path / "resume")
    first = _replay(events, durability=Durability(directory, snapshot_every=10))
    count_before = sum(len(c) for c in first.store.collections)
    first.durability.abandon()

    resumed = StreamResolver.recover(
        directory, resume=True, snapshot_every=10, clean_clean=True
    )
    assert resumed.recovery is not None
    assert sum(len(c) for c in resumed.store.collections) == count_before
    extra = _events("movies", "uniform", limit=1)[0]
    resumed.ingest(extra.description, extra.source)
    resumed.close()

    final = recover(directory)
    assert (
        sum(len(c) for c in final.store.collections) == count_before + 1
    )
    assert final.store.get(extra.description.uri) is not None



@pytest.mark.parametrize("reuse", ["controller", "path"])
def test_a_directory_holding_a_log_refuses_a_fresh_store(tmp_path, reuse):
    """A second run into a used directory would append a second history
    to the first run's log; the bind refuses, and the log is untouched."""
    events = _events("restaurants", "uniform", limit=30)
    directory = str(tmp_path / "used")
    first = _replay(events, durability=Durability(directory, snapshot_every=10))
    first.close()
    expected = _capture(first)
    wal_path = os.path.join(directory, "wal.log")
    with open(wal_path, "rb") as handle:
        log = handle.read()

    durability = Durability(directory) if reuse == "controller" else directory
    with pytest.raises(ValueError, match="already holds a write-ahead log"):
        StreamResolver(clean_clean=True, durability=durability)
    with open(wal_path, "rb") as handle:
        assert handle.read() == log
    assert _capture(recover(directory)) == expected
    assert _capture(recover(directory, from_scratch=True)) == expected


# -- snapshot format upgrade --------------------------------------------------

#: a durability directory written by the last build whose snapshots were
#: version 1 (they carry the raw pair table's ``state.pairs.common``): a
#: clean-clean processed-view resolver, 22 WAL records — inserts, queries
#: (apply/reconcile records), one URI in both KBs, a delete, a late-key
#: merge and a re-insert — with its only snapshot at LSN 15.
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "v1")
#: the same events through the last build whose snapshots were version 2
#: (no ``state.pairs.common``, still ``state.view_pairs.common``)
V2_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "v2")
#: ... and through the last build whose snapshots were version 3 (no
#: ``common`` anywhere, still the raw ``state.pairs`` factors beside the
#: view's, which no query of a view-serving resolver reads)
V3_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "v3")


def _rewrite_snapshot(source: str, target: str, **changes) -> None:
    """Copy a snapshot file with header fields changed and the CRC redone."""
    document = json.loads(open(source, "rb").read()[9:])
    document.update(changes)
    body = json.dumps(document, separators=(",", ":")).encode("utf-8")
    with open(target, "wb") as handle:
        handle.write(b"%08x %s" % (zlib.crc32(body), body))


@pytest.mark.parametrize(
    "fixture, version",
    [(V1_FIXTURE, 1), (V2_FIXTURE, 2), (V3_FIXTURE, 3)],
    ids=["v1", "v2", "v3"],
)
def test_version_1_snapshot_recovers_to_the_replayed_state(
    tmp_path, fixture, version
):
    directory = shutil.copytree(fixture, str(tmp_path / "old"))
    document = load_snapshot(list_snapshots(directory)[0])
    assert document["version"] == version
    # what version 2 dropped, what version 3 dropped, and what version 4
    # dropped: the raw table's factors beside a view's
    assert ("common" in document["state"]["pairs"]) == (version == 1)
    assert ("common" in document["state"]["view_pairs"]) == (version < 3)
    assert document["state"]["pairs"]["edge_count"] > 0

    recovered = StreamResolver.recover(directory)
    assert recovered.recovery.snapshot_lsn == 15
    assert recovered.recovery.replayed_events == 7
    replayed = StreamResolver.recover(directory, from_scratch=True)
    assert replayed.recovery.replayed_events == replayed.recovery.wal_records == 22
    # Exactly: the restored path and the replayed one agree on every
    # field, the index's lazy re-sort bookkeeping included.
    assert _capture(recovered) == _capture(replayed)
    assert _capture(recovered)["index"]["unsorted"]  # the late-key merge
    assert recovered.pairs is None and replayed.pairs is None
    assert (
        recovered.view_pairs.as_reference_stats()
        == replayed.view_pairs.as_reference_stats()
    )

    # A resumed controller writes the current version next to the old one.
    resumed = StreamResolver.recover(directory, resume=True)
    newest = load_snapshot(resumed.durability.snapshot_now())
    assert newest["version"] == 4
    assert newest["state"]["pairs"] is None
    assert "common" not in newest["state"]["view_pairs"]
    resumed.close()


def test_unknown_snapshot_version_falls_back(tmp_path):
    """A snapshot from a future build is skipped, never half-understood."""
    directory = shutil.copytree(V1_FIXTURE, str(tmp_path / "future"))
    known = list_snapshots(directory)[0]
    future = os.path.join(directory, "snapshot-000000000020.json")
    _rewrite_snapshot(known, future, version=99, lsn=20)
    assert load_snapshot(future) is None

    older = recover(directory)
    assert older.report.snapshot_path == known
    os.remove(known)
    replayed = recover(directory)
    assert replayed.report.snapshot_lsn == 0
    assert replayed.report.replayed_events == replayed.report.wal_records
    assert _capture(older) == _capture(replayed)
