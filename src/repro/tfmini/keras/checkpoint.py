"""TensorFlow-style checkpointing through buffered STDIO writes.

A checkpoint consists of a data file holding every variable's serialized
content plus a small index file.  TensorFlow's POSIX filesystem writes both
through ``fwrite``, which is why the paper's Fig. 6 shows checkpoint traffic
on Darshan's STDIO layer (~1 400 ``fwrite`` calls for ten AlexNet
checkpoints).  The writer chunks large tensors so the number of ``fwrite``
calls scales with the model size the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List


@dataclass
class CheckpointInfo:
    """Result of writing one checkpoint."""

    path: str
    data_file: str
    index_file: str
    bytes_written: int
    fwrite_calls: int
    elapsed: float


class CheckpointWriter:
    """Writes model variables the way ``tf.train.Checkpoint`` does."""

    #: Tensors are appended in chunks of this many bytes.
    WRITE_CHUNK = 2 << 20
    #: Size of the per-variable header entry in the data file.
    HEADER_BYTES = 256
    #: Size of the serialized index blob.
    INDEX_BYTES = 4096

    def __init__(self, runtime):
        self.runtime = runtime
        self.checkpoints: List[CheckpointInfo] = []

    def save(self, model, path: str) -> Generator:
        """Write one checkpoint of ``model`` at ``path`` (a path prefix)."""
        env = self.runtime.env
        start = env.now
        data_file = f"{path}.data-00000-of-00001"
        index_file = f"{path}.index"
        fwrites = 0
        bytes_written = 0

        handle = yield from self.runtime.filesystem.new_writable_file(data_file)
        for variable in model.variables:
            yield from handle.append(self.HEADER_BYTES)
            fwrites += 1
            bytes_written += self.HEADER_BYTES
            remaining = variable.nbytes
            while remaining > 0:
                chunk = min(self.WRITE_CHUNK, remaining)
                yield from handle.append(chunk)
                fwrites += 1
                bytes_written += chunk
                remaining -= chunk
        yield from handle.flush()
        yield from handle.close()

        index_handle = yield from self.runtime.filesystem.new_writable_file(index_file)
        yield from index_handle.append(self.INDEX_BYTES)
        yield from index_handle.append(64)
        fwrites += 2
        bytes_written += self.INDEX_BYTES + 64
        yield from index_handle.close()

        info = CheckpointInfo(
            path=path, data_file=data_file, index_file=index_file,
            bytes_written=bytes_written, fwrite_calls=fwrites,
            elapsed=env.now - start)
        self.checkpoints.append(info)
        self.runtime.traceme.record("SaveCheckpoint", start, env.now,
                                    thread="host", path=path,
                                    bytes=bytes_written)
        return info

