"""Buffered STDIO streams (``FILE*``) on top of the POSIX layer.

TensorFlow's POSIX filesystem plugin writes checkpoints through ``fwrite``
(Section IV-D of the paper), which is why Darshan's STDIO module sees
checkpoint traffic while the POSIX module sees the data-ingestion reads.
The STDIO layer keeps a user-space buffer per stream and calls the POSIX
layer's *internal* implementations directly — mirroring glibc, whose stdio
issues syscalls without going back through the PLT, so interposing ``write``
does not double-count ``fwrite`` traffic.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from itertools import count
from typing import Dict, Generator

from repro.sim import Environment, Timeout
from repro.posix.errors import SimOSError
from repro.posix.fdtable import (O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY,
                                 SEEK_CUR, SEEK_END, SEEK_SET)
from repro.posix.syscalls import PosixLayer

#: Default stdio buffer size (glibc's BUFSIZ is 8 KiB).
DEFAULT_BUFFER_SIZE = 8192

_MODE_FLAGS = {
    "r": O_RDONLY,
    "rb": O_RDONLY,
    "r+": O_RDWR,
    "w": O_WRONLY | O_CREAT | O_TRUNC,
    "wb": O_WRONLY | O_CREAT | O_TRUNC,
    "w+": O_RDWR | O_CREAT | O_TRUNC,
    "a": O_WRONLY | O_CREAT | O_APPEND,
    "ab": O_WRONLY | O_CREAT | O_APPEND,
}


@dataclass
class FileStream:
    """State of one ``FILE*`` stream."""

    stream_id: int
    path: str
    fd: int
    buffer_size: int = DEFAULT_BUFFER_SIZE
    #: Bytes buffered in user space, waiting to be written.
    pending_write_bytes: int = 0
    #: Logical stream position (offset of the *next* fread/fwrite).
    position: int = 0
    #: Per-stream operation counters (used in tests).
    writes: int = 0
    reads: int = 0
    flushes: int = 0


class StdioLayer:
    """``fopen``/``fread``/``fwrite``/... over the POSIX layer."""

    #: libc bookkeeping per stream call (seconds).
    OP_OVERHEAD = 0.4e-6

    def __init__(self, env: Environment, posix: PosixLayer,
                 buffer_size: int = DEFAULT_BUFFER_SIZE):
        self.env = env
        self.posix = posix
        self.buffer_size = int(buffer_size)
        self._streams: Dict[int, FileStream] = {}
        self._ids = count(start=1)

    # -- helpers ------------------------------------------------------------
    def _get(self, stream: object) -> FileStream:
        stream_id = stream.stream_id if isinstance(stream, FileStream) else int(stream)
        fs = self._streams.get(stream_id)
        if fs is None:
            raise SimOSError(errno.EBADF, "bad stream", str(stream))
        return fs

    def _charge(self) -> Timeout:
        return self.env.timeout(self.OP_OVERHEAD)

    # -- API -----------------------------------------------------------------
    def fopen(self, path: str, mode: str = "r") -> Generator:
        """Open a stream; returns a :class:`FileStream`."""
        yield self._charge()
        flags = _MODE_FLAGS.get(mode)
        if flags is None:
            raise SimOSError(errno.EINVAL, f"unsupported mode {mode!r}", path)
        fd = yield from self.posix.open(path, flags)
        stream = FileStream(stream_id=next(self._ids), path=path, fd=fd,
                            buffer_size=self.buffer_size)
        if flags & O_APPEND:
            stat = yield from self.posix.fstat(fd)
            stream.position = stat.st_size
        self._streams[stream.stream_id] = stream
        return stream

    def fread(self, stream: object, nbytes: int) -> Generator:
        """Read up to ``nbytes`` from the stream position; returns the
        number of bytes read (0 at end of file)."""
        if nbytes < 0:
            raise SimOSError(errno.EINVAL, "negative count")
        yield self._charge()
        fs = self._get(stream)
        fs.reads += 1
        nread = yield from self.posix.pread(fs.fd, nbytes, fs.position)
        fs.position += nread
        return nread

    def fwrite(self, stream: object, nbytes: int) -> Generator:
        """Buffered write of ``nbytes``; flushes to POSIX when the buffer
        fills."""
        if nbytes < 0:
            raise SimOSError(errno.EINVAL, "negative count")
        yield self._charge()
        fs = self._get(stream)
        fs.writes += 1
        fs.pending_write_bytes += nbytes
        fs.position += nbytes
        if fs.pending_write_bytes >= fs.buffer_size:
            yield from self._flush(fs)
        return nbytes

    def fseek(self, stream: object, offset: int, whence: int = SEEK_SET
              ) -> Generator:
        """Reposition the stream (flushes pending writes first).

        A bad ``whence`` or a negative position raises EINVAL and leaves the
        position as it was; unless only an ``fstat`` can tell (SEEK_END),
        it raises before any charge or flush.
        """
        fs = self._get(stream)
        if whence not in (SEEK_SET, SEEK_CUR, SEEK_END):
            raise SimOSError(errno.EINVAL, f"bad whence {whence}", fs.path)
        base = fs.position if whence == SEEK_CUR else 0
        if whence != SEEK_END:
            self._check_position(base + offset, fs)
        yield self._charge()
        yield from self._flush(fs)
        if whence == SEEK_END:
            stat = yield from self.posix.fstat(fs.fd)
            base = stat.st_size
            self._check_position(base + offset, fs)
        fs.position = base + offset
        return 0

    @staticmethod
    def _check_position(position: int, fs: FileStream) -> None:
        if position < 0:
            raise SimOSError(errno.EINVAL, "negative stream position", fs.path)

    def ftell(self, stream: object) -> Generator:
        """Current logical position of the stream."""
        yield self._charge()
        fs = self._get(stream)
        return fs.position

    def fflush(self, stream: object) -> Generator:
        """Flush buffered writes down to the POSIX layer."""
        yield self._charge()
        fs = self._get(stream)
        fs.flushes += 1
        yield from self._flush(fs)
        return 0

    def fclose(self, stream: object) -> Generator:
        """Flush and close the stream and its descriptor."""
        yield self._charge()
        fs = self._get(stream)
        yield from self._flush(fs)
        yield from self.posix.close(fs.fd)
        del self._streams[fs.stream_id]
        return 0

    # -- internals --------------------------------------------------------------
    def _flush(self, fs: FileStream) -> Generator:
        if fs.pending_write_bytes <= 0:
            return
        nbytes = fs.pending_write_bytes
        offset = fs.position - nbytes
        fs.pending_write_bytes = 0
        yield from self.posix.pwrite(fs.fd, nbytes, offset)

    # -- registration --------------------------------------------------------------
    def bindings(self) -> dict:
        """Symbol bindings to install into a :class:`SymbolTable`."""
        return {
            "fopen": self.fopen,
            "fclose": self.fclose,
            "fread": self.fread,
            "fwrite": self.fwrite,
            "fseek": self.fseek,
            "ftell": self.ftell,
            "fflush": self.fflush,
        }
