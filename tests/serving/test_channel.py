"""The router's pipe ends over bare ``os.pipe()``s — no processes.

Count- and state-based: what a writer holds pending, which frames a
reader hands back, what happens at a closed peer.  No timing bars.
"""

from __future__ import annotations

import os
from multiprocessing.connection import Connection

import pytest

from repro.serving.channel import FrameReader, FrameWriter, encode, wait_ready


@pytest.fixture
def pipe():
    """``[read_fd, write_fd]``; a test that closes one sets it to None."""
    ends = list(os.pipe())
    yield ends
    for fd in ends:
        if fd is not None:
            os.close(fd)


def close(pipe, index):
    os.close(pipe[index])
    pipe[index] = None


class TestFrameWriter:
    def test_unread_megabyte_is_held_then_delivered_in_order(self, pipe):
        writer = FrameWriter(pipe[1])
        messages = [(index, "x" * 4000) for index in range(300)]
        for message in messages:  # > 1 MiB; nobody is reading
            writer.send(encode(message))
        assert len(writer.pending) > 1 << 20
        assert wait_ready([], [pipe[1]], 0.0) == set()  # full: not writable

        reader = FrameReader(pipe[0])
        received = []
        while writer.pending:
            assert wait_ready([pipe[0]], [], 0.0) == {pipe[0]}
            received.extend(reader.read())
            writer.flush()
        received.extend(reader.read())
        assert received == messages

    def test_send_to_a_closed_reader_is_dropped_silently(self, pipe):
        writer = FrameWriter(pipe[1])
        close(pipe, 0)
        writer.send(encode("nobody home"))
        assert not writer.pending

    def test_frames_are_what_a_stock_connection_receives(self, pipe):
        writer = FrameWriter(pipe[1])
        with Connection(os.dup(pipe[0]), writable=False) as connection:
            writer.send(encode({"a": 1}))
            writer.send(encode(("b", 2.5)))
            assert connection.recv() == {"a": 1}
            assert connection.recv() == ("b", 2.5)


class TestFrameReader:
    def test_a_partial_frame_yields_nothing_and_does_not_block(self, pipe):
        reader = FrameReader(pipe[0])
        frame = encode(list(range(50)))
        half = 4 + (len(frame) - 4) // 2
        for cut in (2, half):  # inside the header, inside the payload
            os.write(pipe[1], frame[:cut])
            assert reader.read() == []
            assert reader.read() == []  # still nothing, still no blocking
            os.write(pipe[1], frame[cut:])
            assert reader.read() == [list(range(50))]
            assert reader.read() == []

    def test_two_frames_in_one_read_come_out_as_two(self, pipe):
        reader = FrameReader(pipe[0])
        os.write(pipe[1], encode("first") + encode("second"))
        assert reader.read() == ["first", "second"]

    def test_reads_what_a_stock_connection_sends(self, pipe):
        reader = FrameReader(pipe[0])
        with Connection(os.dup(pipe[1]), readable=False) as connection:
            connection.send({"weights": {1: 0.5}})
            # Past 16 KiB a Connection writes header and body separately;
            # kept under the 64 KiB pipe so its blocking send returns.
            connection.send("x" * 20_000)
        assert reader.read() == [{"weights": {1: 0.5}}, "x" * 20_000]

    def test_eof_is_reported_once_after_the_last_frame(self, pipe, monkeypatch):
        reader = FrameReader(pipe[0])
        os.write(pipe[1], encode("last words") + encode("torn")[:-3])
        close(pipe, 1)
        assert reader.read() == ["last words"]  # the torn frame is not one
        assert not reader.eof  # a short read stops before looking for EOF
        assert wait_ready([pipe[0]], [], 0.0) == {pipe[0]}  # hang-up wakes
        assert reader.read() == []
        assert reader.eof
        # Once at EOF the descriptor is never read again.
        monkeypatch.setattr(os, "read", lambda *a: pytest.fail("read at EOF"))
        assert reader.read() == []
