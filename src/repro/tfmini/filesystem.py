"""TensorFlow's POSIX filesystem plugin.

``tf.io.read_file`` ends up in the platform's POSIX filesystem module,
whose ``ReadFileToString`` loops over ``pread`` until a read returns zero
bytes — the behaviour the paper discovers in the ImageNet case study ("the
read file operation consists of a loop that performs pread.  The function
returns only upon pread returning zero").  Writable files (checkpoints) go
through buffered ``fwrite``.  All calls are issued through the simulated
process's symbol table, which is what makes them visible to Darshan.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.posix.simbytes import BytesLike, SimBytes


class WritableFile:
    """TensorFlow's ``WritableFile``: buffered appends through STDIO."""

    def __init__(self, runtime, path: str):
        self.runtime = runtime
        self.path = path
        self._stream = None
        self.bytes_written = 0
        self.append_calls = 0

    def open(self) -> Generator:
        """Open the underlying stream (``fopen(path, "wb")``)."""
        self._stream = yield from self.runtime.os.call("fopen", self.path, "wb")
        return self

    def append(self, data: BytesLike) -> Generator:
        """Append a block of data (one ``fwrite`` call)."""
        payload = SimBytes.coerce(data)
        written = yield from self.runtime.os.call("fwrite", self._stream, payload)
        self.bytes_written += written
        self.append_calls += 1
        return written

    def flush(self) -> Generator:
        yield from self.runtime.os.call("fflush", self._stream)

    def close(self) -> Generator:
        yield from self.runtime.os.call("fclose", self._stream)
        self._stream = None


class PosixFileSystem:
    """The subset of TF's filesystem API the workloads exercise."""

    def __init__(self, runtime):
        self.runtime = runtime

    # -- reads ------------------------------------------------------------
    def read_file_to_string(self, path: str,
                            buffer_size: Optional[int] = None) -> Generator:
        """Read a whole file with the pread-until-zero loop.

        Returns a :class:`SimBytes` of the file contents.  The terminating
        zero-length ``pread`` is intentional: it is how TensorFlow detects
        EOF and it is the source of the "50 % of reads are below 100 bytes"
        observation in the paper.
        """
        chunk = buffer_size or self.runtime.read_buffer_size
        os_image = self.runtime.os
        fd = yield from os_image.call("open", path)
        offset = 0
        while True:
            data = yield from os_image.call("pread", fd, chunk, offset)
            if data.nbytes == 0:
                break
            offset += data.nbytes
        yield from os_image.call("close", fd)
        return SimBytes(offset)

    # -- writes ------------------------------------------------------------
    def new_writable_file(self, path: str) -> Generator:
        """Create a :class:`WritableFile` (used by the checkpoint writer)."""
        handle = WritableFile(self.runtime, path)
        yield from handle.open()
        return handle
