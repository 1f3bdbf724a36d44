"""Power-loss harness: what was never fsynced is gone.

``CrashyFiles`` tears the write that crosses its byte budget (the
process dies); :meth:`CrashyFiles.power_loss` then cuts every appended
file back to the length its last ``fsync`` covered (the machine dies).
Only the second can tell an acknowledged event from a cached one, which
is the whole durability contract:

* an ``ingest`` / ``delete`` that returned at ``fsync_every=1`` is in
  the recovered store (at ``fsync_every=N`` fewer than N may be lost);
* the recovered state equals the uninterrupted run cut after the last
  surviving record — nothing is half-applied;
* ``recover()`` equals ``recover(from_scratch=True)`` — on the whole
  ``capture_state``, the index's lazy re-sort bookkeeping included (a
  reconcile builds no snapshot, so no recovery path sorts a straggler
  posting another still defers);
* a snapshot on disk never has an LSN beyond the durable log, and one
  that does (a directory written before snapshots synced the log) is
  discarded when the directory is opened for writing;
* drain markers (``apply`` / ``reconcile``) are not acknowledgements: a
  trailing run of them may be lost, and the next read re-derives it.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.description import EntityDescription
from repro.stream import StreamResolver
from repro.stream.durability import (
    WAL_NAME,
    CrashError,
    CrashyFiles,
    Durability,
    WriteAheadLog,
    capture_state,
    list_snapshots,
    load_snapshot,
    recover,
)

TOKENS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]
URIS = [f"http://e/{name}" for name in "abcdefgh"]
RECONCILE_EVERY = 4
SNAPSHOT_EVERY = 6

draws = st.lists(
    st.tuples(
        st.sampled_from(["ingest", "resolve", "delete", "merge"]),
        st.sampled_from(URIS),
        st.sets(st.sampled_from(TOKENS), min_size=1, max_size=3),
        st.integers(0, 1),
    ),
    min_size=6,
    max_size=36,
)


def _capture(stack) -> dict:
    """``capture_state`` of anything exposing the five components, whole."""
    return capture_state(
        stack.store, stack.index, stack.pairs, stack.view, stack.view_pairs
    )


def _events(drawn, sides: int) -> list[tuple]:
    """``(op, description, source)``; a delete always hits a live URI.

    A ``merge`` re-ingests a live URI into the source that holds it with
    the drawn tokens: the URI gains keys that later arrivals may have
    claimed first (a late-key merge, the index's lazy re-sort case).
    """
    events = []
    live: dict[str, int] = {}
    for op, uri, tokens, side in drawn:
        side %= sides
        if op in ("delete", "merge") and uri not in live:
            op = "ingest"
        description = EntityDescription(uri, {"p": [" ".join(sorted(tokens))]})
        if op == "delete":
            del live[uri]
        elif op == "merge":
            op, side = "ingest", live[uri]
        else:
            live[uri] = side
        events.append((op, description, side))
    return events


def _new_resolver(clean_clean: bool, durability=None) -> StreamResolver:
    return StreamResolver(
        clean_clean=clean_clean,
        processed_view=True,
        reconcile_every=RECONCILE_EVERY,
        durability=durability,
    )


def _apply(resolver: StreamResolver, event) -> None:
    op, description, source = event
    if op == "ingest":
        resolver.ingest(description.copy(), source)
    elif op == "delete":
        resolver.delete(description.uri)
    else:
        resolver.resolve(description.copy(), source=source, ingest=True)


def _wal_records(directory: str):
    return WriteAheadLog(os.path.join(directory, WAL_NAME), 0).records()


class _Cut(Exception):
    """The in-memory reference reached the end of the surviving log."""


class _CountingLog:
    """Stands where a ``Durability`` would and stops the run at a record.

    Counts the records an in-memory run *would* have logged and raises
    before record ``limit + 1`` — every hook is write-ahead, so nothing
    of that record has been applied.  One exception: a ``reconcile``
    record implies the drain it begins with (replaying it runs
    ``view.reconcile()``, which drains first), so the ``apply`` directly
    after a surviving ``reconcile`` is let through.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.kinds: list[str] = []

    def _log(self, kind: str) -> None:
        if len(self.kinds) >= self.limit and not (
            len(self.kinds) == self.limit
            and kind == "apply"
            and self.kinds[-1:] == ["reconcile"]
        ):
            raise _Cut
        self.kinds.append(kind)

    def log_insert(self, description, source) -> None:
        self._log("insert")

    def log_delete(self, uri) -> None:
        self._log("delete")

    def log_reconcile(self) -> None:
        self._log("reconcile")

    def log_apply(self) -> None:
        self._log("apply")

    def maybe_snapshot(self) -> None:
        return None


def _uninterrupted_cut_at(events, clean_clean: bool, limit: int) -> StreamResolver:
    """The same events in memory, stopped after *limit* logged records."""
    reference = _new_resolver(clean_clean)
    log = _CountingLog(limit)
    reference.store.durability = log
    reference.durability = log
    reference.view.subscribe_apply(log.log_apply)
    try:
        for event in events:
            _apply(reference, event)
    except _Cut:
        pass
    return reference


@settings(max_examples=60, deadline=None)
@given(
    drawn=draws,
    clean_clean=st.booleans(),
    fsync_every=st.sampled_from([1, 3]),
    budget=st.integers(150, 30_000),
)
def test_power_loss_keeps_every_acknowledged_event(
    tmp_path_factory, drawn, clean_clean, fsync_every, budget
):
    directory = str(tmp_path_factory.mktemp("power"))
    events = _events(drawn, 2 if clean_clean else 1)
    files = CrashyFiles(budget)
    durability = Durability(
        directory,
        fsync_every=fsync_every,
        snapshot_every=SNAPSHOT_EVERY,
        files=files,
    )
    acknowledged = 0  # mutations whose call returned
    try:
        resolver = _new_resolver(clean_clean, durability)
        for event in events:
            _apply(resolver, event)
            acknowledged += 1
    except CrashError:
        pass
    durability.abandon()
    files.power_loss()

    try:
        recovered = recover(directory)
    except FileNotFoundError:
        # The cut came before the header was synced: nothing was
        # acknowledged, so there is nothing to lose.
        assert acknowledged == 0
        return
    surviving = recovered.report.wal_records
    kinds = [kind for _lsn, kind, _payload in _wal_records(directory)]
    mutations = sum(kind in ("insert", "delete") for kind in kinds)
    assert mutations > acknowledged - fsync_every

    reference = _uninterrupted_cut_at(events, clean_clean, surviving)
    assert _capture(recovered) == _capture(reference)
    assert _capture(recover(directory, from_scratch=True)) == _capture(recovered)
    for path in list_snapshots(directory):
        document = load_snapshot(path)
        assert document is None or document["lsn"] <= surviving


def _pioneers(count: int, start: int = 0) -> list[EntityDescription]:
    return [
        EntityDescription(
            f"http://p/{i}", {"name": [f"pioneer number{i}"], "field": ["computing"]}
        )
        for i in range(start, start + count)
    ]


def test_lost_trailing_drain_markers_are_rederived_by_the_next_read(tmp_path):
    """A query's ``reconcile`` / ``apply`` records ride on the next
    mutation's sync; losing them loses nothing a read does not redo."""
    directory = str(tmp_path / "markers")
    files = CrashyFiles(10**9)
    live = _new_resolver(False, Durability(directory, files=files))
    people = _pioneers(RECONCILE_EVERY + 2)
    for description in people[:-1]:
        live.ingest(description.copy())
    live.resolve(people[-1].copy(), ingest=True)
    written = [kind for _lsn, kind, _payload in live.durability.wal.records()]
    assert written[-3:] == ["insert", "reconcile", "apply"]
    uninterrupted = _capture(live)
    live.durability.abandon()
    files.power_loss()

    recovered = StreamResolver.recover(directory, resume=True)
    assert recovered.recovery.wal_records == len(written) - 2  # markers lost
    assert recovered.store.get(people[-1].uri) is not None  # the insert is not
    assert _capture(recovered) != uninterrupted
    recovered.resolve(people[-1].copy(), ingest=False)
    assert _capture(recovered) == uninterrupted
    recovered.close()
    assert _capture(recover(directory)) == uninterrupted


def test_snapshot_never_leads_the_durable_log(tmp_path):
    """``fsync_every=0`` leaves the whole log in the OS cache — a
    snapshot taken then must sync it first."""
    directory = str(tmp_path / "lead")
    files = CrashyFiles(10**9)
    resolver = StreamResolver(
        durability=Durability(directory, fsync_every=0, snapshot_every=20, files=files)
    )
    for description in _pioneers(25):
        resolver.ingest(description)
    resolver.durability.abandon()
    files.power_loss()
    (snapshot,) = list_snapshots(directory)
    assert load_snapshot(snapshot)["lsn"] == 20
    recovered = recover(directory)
    assert recovered.report.wal_records >= 20
    assert recovered.report.snapshot_lsn == 20
    assert _capture(recovered) == _capture(recover(directory, from_scratch=True))


def test_stale_snapshot_is_discarded_when_the_directory_is_reopened(tmp_path):
    """A directory whose snapshot is ahead of its log (written by a build
    that did not sync before snapshotting, then hit by a power cut) must
    not restore that snapshot into the history that grew in its place."""
    directory = str(tmp_path / "stale")
    first = StreamResolver(
        durability=Durability(directory, fsync_every=0, snapshot_every=20)
    )
    for description in _pioneers(25):
        first.ingest(description)
    first.durability.abandon()
    # What a power cut does to an unsynced tail: header + 10 records left.
    wal_path = os.path.join(directory, "wal.log")
    with open(wal_path, "rb") as handle:
        lines = handle.read().split(b"\n")
    with open(wal_path, "wb") as handle:
        handle.write(b"\n".join(lines[:11]) + b"\n")
    assert load_snapshot(list_snapshots(directory)[0])["lsn"] == 20

    resumed = StreamResolver.recover(directory, resume=True)
    assert resumed.recovery.wal_records == 10
    assert list_snapshots(directory) == []  # LSN 20 > 10: gone on open
    for description in _pioneers(15, start=100):
        resumed.ingest(description)
    resumed.close()

    final = recover(directory)
    assert final.report.wal_records == 25
    assert _capture(final) == _capture(recover(directory, from_scratch=True))
    assert final.store.get("http://p/12") is None
    assert final.store.get("http://p/112") is not None
