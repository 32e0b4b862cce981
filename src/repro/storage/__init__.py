"""Storage substrate: device models, filesystems, tiering and metrics."""

from repro.storage.backend import LocalFilesystem, StorageBackend
from repro.storage.device import RotationalDevice, StorageDevice, StreamingDevice
from repro.storage.lustre import LustreFilesystem
from repro.storage.metrics import DeviceMetrics, TransferInterval, merge_timelines
from repro.storage.pagecache import PageCache
from repro.storage.presets import (
    GIB,
    KIB,
    MIB,
    dram,
    greendog_hdd_filesystem,
    greendog_optane_filesystem,
    greendog_ssd_filesystem,
    hdd,
    kebnekaise_lustre,
    optane_ssd,
    sata_ssd,
)
from repro.storage.tiering import Mount, MountTable, StagingManager, StagingResult

__all__ = [
    "DeviceMetrics",
    "GIB",
    "KIB",
    "LocalFilesystem",
    "LustreFilesystem",
    "MIB",
    "Mount",
    "MountTable",
    "PageCache",
    "RotationalDevice",
    "StagingManager",
    "StagingResult",
    "StorageBackend",
    "StorageDevice",
    "StreamingDevice",
    "TransferInterval",
    "dram",
    "greendog_hdd_filesystem",
    "greendog_optane_filesystem",
    "greendog_ssd_filesystem",
    "hdd",
    "kebnekaise_lustre",
    "merge_timelines",
    "optane_ssd",
    "sata_ssd",
]
