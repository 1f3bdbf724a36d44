"""A file is durable only once its directory entry is: the WAL's creation
and every snapshot rename are followed by an ``fsync`` of the directory.

Checked through the ``files=`` seam, on the order of the calls a durable
resolver makes.
"""

from __future__ import annotations

import os

from repro.model.description import EntityDescription
from repro.stream import StreamResolver
from repro.stream.durability import CrashyFiles, Durability, OsFiles, WAL_NAME


class RecordingFiles(OsFiles):
    """``OsFiles`` that logs each durability-relevant call, then does it."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def write_bytes(self, path, payload):
        super().write_bytes(path, payload)
        self.calls.append(("write_bytes", os.path.basename(path)))

    def replace(self, source, destination):
        super().replace(source, destination)
        self.calls.append(("replace", os.path.basename(destination)))

    def fsync(self, handle):
        super().fsync(handle)
        self.calls.append(("fsync", os.path.basename(handle.name)))

    def fsync_dir(self, path):
        super().fsync_dir(path)
        self.calls.append(("fsync_dir", path))


def _run(directory: str, files) -> None:
    resolver = StreamResolver(
        clean_clean=True,
        durability=Durability(directory, snapshot_every=3, files=files),
    )
    for i in range(7):
        description = EntityDescription(f"http://e/{i}", {"name": [f"alpha {i}"]})
        resolver.ingest(description, i % 2)
    resolver.close()


def test_wal_creation_and_snapshot_renames_sync_the_directory(tmp_path):
    directory = str(tmp_path)
    files = RecordingFiles()
    _run(directory, files)
    calls = files.calls
    # The header's fsync, then the directory, before any event lands.
    assert calls[:2] == [("fsync", WAL_NAME), ("fsync_dir", os.path.abspath(directory))]
    renames = [i for i, call in enumerate(calls) if call[0] == "replace"]
    assert len(renames) == 2
    for i in renames:
        assert calls[i - 1] == ("write_bytes", calls[i][1] + ".tmp")
        assert calls[i + 1] == ("fsync_dir", directory)
    assert sum(call[0] == "fsync_dir" for call in calls) == 1 + len(renames)


def test_crashy_files_record_directory_syncs_without_making_them(tmp_path):
    files = CrashyFiles(budget=10**9)
    _run(str(tmp_path), files)
    assert files.synced_dirs == [os.path.abspath(str(tmp_path))] + [str(tmp_path)] * 2
