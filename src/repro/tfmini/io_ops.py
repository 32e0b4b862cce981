"""TensorFlow-style I/O and preprocessing operations.

Each operation is a simulation generator that charges a calibrated CPU cost
to the runtime's shared CPU pool (so parallel pipelines contend for cores
exactly like real ``tf.data`` worker threads) and records a TraceMe span
when profiling is active.  The operations are the ones the paper's capture
functions call, with the shapes those pipelines produce; their cost
coefficients live in one :class:`OpCosts` instance, :data:`COSTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple

from repro.posix.simbytes import SimBytes


@dataclass
class Tensor:
    """A minimal dense-tensor stand-in: shape and element size only."""

    shape: Tuple[int, ...]
    dtype_size: int = 4

    @property
    def nbytes(self) -> int:
        n = self.dtype_size
        for dim in self.shape:
            n *= int(dim)
        return n


@dataclass(frozen=True)
class OpCosts:
    """CPU cost coefficients of the preprocessing operations (seconds)."""

    #: Fixed cost of a JPEG decode plus cost per encoded byte.
    decode_jpeg_base: float = 0.8e-3
    decode_jpeg_per_byte: float = 1.5e-7
    #: Image resize: fixed plus per output pixel (3 channels assumed).
    resize_base: float = 1.0e-3
    resize_per_pixel: float = 4.0e-8
    #: Raw byte decode (malware bytecode to grayscale image).
    decode_raw_base: float = 0.5e-3
    decode_raw_per_byte: float = 1.3e-9
    #: Generic per-element cast/normalize cost per byte.
    cast_per_byte: float = 2.0e-10
    #: Batch assembly (memcpy of one sample into the batch buffer).
    batch_per_byte: float = 1.0e-10


#: The one calibration every operation charges.
COSTS = OpCosts()


def _charge(runtime, seconds: float, name: str, **metadata) -> Generator:
    """Charge CPU work to the pool and trace it."""
    start = runtime.env.now
    if seconds > 0:
        yield runtime.cpu.compute(seconds)
    runtime.traceme.record(name, start, runtime.env.now, thread="input_pipeline",
                           **metadata)


def read_file(runtime, path: str, buffer_size: Optional[int] = None) -> Generator:
    """``tf.io.read_file``: read a whole file through the filesystem plugin."""
    start = runtime.env.now
    data = yield from runtime.filesystem.read_file_to_string(path, buffer_size)
    runtime.traceme.record("ReadFile", start, runtime.env.now,
                           thread="input_pipeline", path=path, bytes=data.nbytes)
    return data


def decode_jpeg(runtime, data: SimBytes) -> Generator:
    """``tf.io.decode_jpeg``: cost scales with the encoded size."""
    seconds = COSTS.decode_jpeg_base + COSTS.decode_jpeg_per_byte * data.nbytes
    yield from _charge(runtime, seconds, "DecodeJpeg", bytes=data.nbytes)
    # Every JPEG decodes to the dataset's typical 500x400 RGB image.
    return Tensor(shape=(500, 400, 3), dtype_size=1)


def resize_image(runtime, image: Tensor, target: Tuple[int, int]) -> Generator:
    """``tf.image.resize``: cost scales with the output pixel count."""
    channels = image.shape[2] if len(image.shape) > 2 else 1
    pixels = target[0] * target[1] * channels
    seconds = COSTS.resize_base + COSTS.resize_per_pixel * pixels
    yield from _charge(runtime, seconds, "ResizeBilinear", pixels=pixels)
    return Tensor(shape=(target[0], target[1], channels), dtype_size=4)


def decode_raw(runtime, data: SimBytes) -> Generator:
    """``tf.io.decode_raw`` + reshape: malware bytecode to a grayscale image
    whose side is the square root of the byte count, kept within 64..2048."""
    seconds = COSTS.decode_raw_base + COSTS.decode_raw_per_byte * data.nbytes
    yield from _charge(runtime, seconds, "DecodeRaw", bytes=data.nbytes)
    side = min(2048, max(64, int(data.nbytes ** 0.5)))
    return Tensor(shape=(side, side, 1), dtype_size=1)


def cast(runtime, tensor: Tensor) -> Generator:
    """``tf.cast`` / normalization of the whole tensor to 4-byte floats."""
    seconds = COSTS.cast_per_byte * tensor.nbytes
    yield from _charge(runtime, seconds, "Cast", bytes=tensor.nbytes)
    return Tensor(shape=tensor.shape, dtype_size=4)


def assemble_batch(runtime, elements: Sequence) -> Generator:
    """Copy a list of samples into one batch buffer (the Batch op)."""
    nbytes = 0
    for element in elements:
        size = getattr(element, "nbytes", None)
        nbytes += int(size) if size is not None else 0
    seconds = COSTS.batch_per_byte * nbytes
    yield from _charge(runtime, seconds, "BatchDataset::MakeBatch", bytes=nbytes)
    return elements
