"""Reimplementation of the Darshan I/O characterization runtime."""

from repro.darshan.counters import (
    POSIX_COUNTERS,
    POSIX_F_COUNTERS,
    SIZE_BUCKET_LABELS,
    STDIO_COUNTERS,
    STDIO_F_COUNTERS,
    read_size_histogram,
    size_bucket,
)
from repro.darshan.dxt import DxtRecord, DxtSegment
from repro.darshan.extraction import (
    EXTRACTABLE_MODULES,
    RuntimeInfo,
    get_dxt_records,
    get_module_records,
    get_runtime_info,
    lookup_record_name,
    resolve_names,
    snapshot_dxt,
    snapshot_records,
)
from repro.darshan.log import DarshanLog
from repro.darshan.posix_module import PosixModule
from repro.darshan.preload import PreloadedDarshan
from repro.darshan.records import CounterRecord, NameRecord, darshan_record_id
from repro.darshan.runtime import DARSHAN_VERSION, DarshanConfig, DarshanCore
from repro.darshan.stdio_module import StdioModule

__all__ = [
    "CounterRecord",
    "DARSHAN_VERSION",
    "DarshanConfig",
    "DarshanCore",
    "DarshanLog",
    "DxtRecord",
    "DxtSegment",
    "EXTRACTABLE_MODULES",
    "NameRecord",
    "POSIX_COUNTERS",
    "POSIX_F_COUNTERS",
    "PosixModule",
    "PreloadedDarshan",
    "RuntimeInfo",
    "SIZE_BUCKET_LABELS",
    "STDIO_COUNTERS",
    "STDIO_F_COUNTERS",
    "StdioModule",
    "darshan_record_id",
    "get_dxt_records",
    "get_module_records",
    "get_runtime_info",
    "lookup_record_name",
    "read_size_histogram",
    "resolve_names",
    "size_bucket",
    "snapshot_dxt",
    "snapshot_records",
]
