"""A TensorFlow-like mini framework executing on the simulation kernel.

The subpackages mirror the TensorFlow pieces the paper's tooling touches:
``tfmini.data`` (input pipelines), ``tfmini.keras`` (models, callbacks and
checkpointing), ``tfmini.profiler`` (the TensorFlow Profiler with pluggable
tracers) and the runtime/filesystem/IO-op layers that issue POSIX calls
through the simulated process's symbol table.
"""

from repro.tfmini import io_ops
from repro.tfmini.data import AUTOTUNE, Batch, Dataset, DatasetIterator, OutOfRangeError
from repro.tfmini.device import GPUDevice, KernelEvent, rtx2060, v100
from repro.tfmini.filesystem import PosixFileSystem, WritableFile
from repro.tfmini.io_ops import OpCosts, Tensor
from repro.tfmini.runtime import TFRuntime

__all__ = [
    "AUTOTUNE",
    "Batch",
    "Dataset",
    "DatasetIterator",
    "GPUDevice",
    "KernelEvent",
    "OpCosts",
    "OutOfRangeError",
    "PosixFileSystem",
    "TFRuntime",
    "Tensor",
    "WritableFile",
    "io_ops",
    "rtx2060",
    "v100",
]
