"""Data-extraction API — the paper's augmentation of Darshan.

Stock Darshan only materializes its records when the instrumented process
exits, which makes in-situ analysis impossible.  Section III-C of the paper
adds "several data extraction functions in the Darshan shared library that
return Darshan module buffers" plus helpers such as file-name lookup
(resolved through ``dlsym``).  This module is the equivalent surface.
:func:`snapshot_records` returns a module's counter records as of now,
sharing the record objects with the live module, which clones a record
before it next writes it (see :class:`~repro.darshan.records.RecordTable`),
and :func:`snapshot_dxt` marks the module's append-only DXT log with its
length; tf-Darshan's wrapper snapshots both at profile start/stop and
analyses the difference while the application keeps running.
:func:`get_module_records` and :func:`get_dxt_records` return fresh copies
the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.darshan.dxt import DxtLog, DxtRecord
from repro.darshan.records import CounterRecord
from repro.darshan.runtime import DarshanCore

#: Module names whose records can be extracted.
EXTRACTABLE_MODULES = ("POSIX", "STDIO", "DXT_POSIX", "DXT_STDIO")


@dataclass
class RuntimeInfo:
    """Summary of the live Darshan runtime (``darshan_get_runtime_info``)."""

    enabled: bool
    modules: List[str]
    file_counts: Dict[str, int]
    start_time: float
    version: str

    @property
    def total_files(self) -> int:
        return max(self.file_counts.values()) if self.file_counts else 0


def snapshot_records(core: DarshanCore, module_name: str
                     ) -> Dict[int, CounterRecord]:
    """A module's counter records as of now.

    The records are shared with the live module until it next writes them,
    so the caller must not modify them.
    """
    module = core.get_module(module_name)
    return module.records.snapshot() if module is not None else {}


def snapshot_dxt(core: DarshanCore, module_name: str) -> Tuple[DxtLog, int]:
    """A module's DXT log and its length now.

    The log only grows, so its first ``length`` rows stay the segments as
    of now.
    """
    log = core.get_module(module_name).dxt_log
    return log, len(log)


def get_module_records(core: DarshanCore, module_name: str
                       ) -> Dict[int, CounterRecord]:
    """Deep copy of the counter records of a module ("POSIX" or "STDIO")."""
    module = core.get_module(module_name)
    if module is None:
        return {}
    return {rec_id: rec.copy() for rec_id, rec in module.records.items()}


def get_dxt_records(core: DarshanCore, module_name: str = "POSIX"
                    ) -> Dict[int, DxtRecord]:
    """The DXT segment records of a counter module's files, built afresh."""
    module = core.get_module(module_name)
    return module.dxt_records if module is not None else {}


def lookup_record_name(core: DarshanCore, record_id: int) -> Optional[str]:
    """Resolve a record id to its file path (``darshan_core_lookup_name``)."""
    return core.lookup_name(record_id)

def resolve_names(core: DarshanCore, record_ids) -> Dict[int, Optional[str]]:
    """Resolve many record ids at once."""
    return {rid: core.lookup_name(rid) for rid in record_ids}


def get_runtime_info(core: DarshanCore) -> RuntimeInfo:
    """File counts and module list of the live runtime.

    The paper's discussion section names this as one of the three extra
    functionalities tf-Darshan needs from Darshan.
    """
    file_counts = {}
    for name, module in core.modules.items():
        count = getattr(module, "file_count", None)
        if callable(count):
            file_counts[name] = count()
    return RuntimeInfo(
        enabled=core.enabled,
        modules=sorted(core.modules),
        file_counts=file_counts,
        start_time=core.start_time,
        version=core.metadata.get("lib_ver", "unknown"),
    )
