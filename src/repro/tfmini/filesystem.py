"""TensorFlow's POSIX filesystem plugin.

``tf.io.read_file`` ends up in the platform's POSIX filesystem module,
whose ``ReadFileToString`` loops over ``pread`` until a read returns zero
bytes — the behaviour the paper discovers in the ImageNet case study ("the
read file operation consists of a loop that performs pread.  The function
returns only upon pread returning zero").  Writable files (checkpoints) go
through buffered ``fwrite``.  All calls are issued through the simulated
process's symbol table, which is what makes them visible to Darshan.

The filesystem and its writable files receive the simulated OS image (and
the read chunk size) from the runtime that owns them, not the runtime
itself, so nothing here points back at the runtime.
"""

from __future__ import annotations

from typing import Generator, Optional


class WritableFile:
    """TensorFlow's ``WritableFile``: buffered appends through STDIO."""

    def __init__(self, os_image, path: str):
        self.os = os_image
        self.path = path
        self._stream = None
        self.bytes_written = 0

    def open(self) -> Generator:
        """Open the underlying stream (``fopen(path, "wb")``)."""
        self._stream = yield from self.os.call("fopen", self.path, "wb")
        return self

    def append(self, nbytes: int) -> Generator:
        """Append ``nbytes`` of data (one ``fwrite`` call)."""
        written = yield from self.os.call("fwrite", self._stream, nbytes)
        self.bytes_written += written
        return written

    def flush(self) -> Generator:
        yield from self.os.call("fflush", self._stream)

    def close(self) -> Generator:
        yield from self.os.call("fclose", self._stream)
        self._stream = None


class PosixFileSystem:
    """The subset of TF's filesystem API the workloads exercise."""

    def __init__(self, os_image, read_buffer_size: int):
        self.os = os_image
        self.read_buffer_size = read_buffer_size

    # -- reads ------------------------------------------------------------
    def read_file_to_string(self, path: str,
                            buffer_size: Optional[int] = None) -> Generator:
        """Read a whole file with the pread-until-zero loop.

        Returns the number of bytes read.  The terminating zero-length
        ``pread`` is intentional: it is how TensorFlow detects EOF and it is
        the source of the "50 % of reads are below 100 bytes" observation in
        the paper.
        """
        chunk = buffer_size or self.read_buffer_size
        os_image = self.os
        fd = yield from os_image.call("open", path)
        offset = 0
        while True:
            nbytes = yield from os_image.call("pread", fd, chunk, offset)
            if nbytes == 0:
                break
            offset += nbytes
        yield from os_image.call("close", fd)
        return offset

    # -- writes ------------------------------------------------------------
    def new_writable_file(self, path: str) -> Generator:
        """Create a :class:`WritableFile` (used by the checkpoint writer)."""
        handle = WritableFile(self.os, path)
        yield from handle.open()
        return handle
