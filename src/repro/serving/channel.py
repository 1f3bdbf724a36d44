"""The router's ends of a shard's pipes: framed, non-blocking, thread-free.

Frames use :mod:`multiprocessing.connection`'s own wire format (signed
32-bit big-endian length, then the pickle), so the shard side is a
stock ``Connection`` doing blocking ``recv()`` / ``send()``.  The router
must never block on a frozen or dead peer, so its side is two views
over non-blocking descriptors (the :class:`~repro.serving.shard.
ShardHandle` that opened the pipes closes them) and one readiness wait.
"""

from __future__ import annotations

import os
import pickle
import select
import struct

_HEADER = struct.Struct("!i")
_READ_CHUNK = 1 << 16


def encode(message) -> bytes:
    """One wire frame for *message* (encode once, write to many pipes)."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


class FrameWriter:
    """Write end of a pipe; ``send`` returns at once, and what a full
    pipe refuses waits in ``pending`` (a ``Queue`` feeder thread's
    unbounded buffering, without the thread)."""

    def __init__(self, fd: int) -> None:
        os.set_blocking(fd, False)
        self.fd = fd
        self.pending = bytearray()

    def send(self, frame: bytes) -> None:
        self.pending += frame
        self.flush()

    def flush(self) -> None:
        """Write as much of ``pending`` as the pipe takes right now."""
        while self.pending:
            try:
                written = os.write(self.fd, self.pending)
            except BlockingIOError:
                return
            except BrokenPipeError:
                # The reader is gone; its replacement is re-driven from
                # the router's log, so these bytes have no one to reach.
                self.pending.clear()
                return
            del self.pending[:written]


class FrameReader:
    """Read end of a pipe; ``read`` never waits for the rest of a frame."""

    def __init__(self, fd: int) -> None:
        os.set_blocking(fd, False)
        self.fd = fd
        self._buffer = bytearray()
        self.eof = False  # True once the writer's end is closed

    def read(self) -> list:
        """Drain the pipe; the messages of every frame now complete."""
        while not self.eof:
            try:
                chunk = os.read(self.fd, _READ_CHUNK)
            except BlockingIOError:
                break
            self.eof = not chunk
            self._buffer += chunk
            if len(chunk) < _READ_CHUNK:
                break
        messages = []
        buffer = self._buffer
        while len(buffer) >= _HEADER.size:
            end = _HEADER.size + _HEADER.unpack_from(buffer)[0]
            if len(buffer) < end:
                break
            messages.append(pickle.loads(buffer[_HEADER.size:end]))
            del buffer[:end]
        return messages


def wait_ready(readable, writable, timeout_s: float) -> set[int]:
    """Sleep until the timeout or a descriptor is ready (bytes or EOF to
    read, room to write); returns the ready ones."""
    poller = select.poll()
    for fd in readable:
        poller.register(fd, select.POLLIN)
    for fd in writable:
        poller.register(fd, select.POLLOUT)
    return {fd for fd, _ in poller.poll(max(timeout_s, 0.0) * 1e3)}
