"""Data-extraction API — the paper's augmentation of Darshan.

Stock Darshan only materializes its records when the instrumented process
exits, which makes in-situ analysis impossible.  Section III-C of the paper
adds "several data extraction functions in the Darshan shared library that
return Darshan module buffers" plus helpers such as file-name lookup
(resolved through ``dlsym``).  This module is the equivalent surface:
functions that return *copies* of the live module buffers so the caller
(tf-Darshan's wrapper) can snapshot them at profile start/stop and analyse
the difference while the application keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from repro.darshan.dxt import DxtRecord
from repro.darshan.records import CounterRecord
from repro.darshan.runtime import DarshanCore

#: Module names whose records can be extracted.
EXTRACTABLE_MODULES = ("POSIX", "STDIO", "DXT_POSIX", "DXT_STDIO")

Record = Union[CounterRecord, DxtRecord]


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


def copy_records(core: DarshanCore, module_name: str, dxt: bool = False,
                 reuse: Optional[Mapping[int, Record]] = None
                 ) -> Dict[int, Record]:
    """Copies of a module's counter records, or of its DXT records if ``dxt``.

    ``reuse`` is an earlier result of this function for the same ``core``.
    A copy in it whose stamp still equals the live record's is returned
    as is instead of copying the record again, so the two results share
    it and neither may modify it.  Every other copy is fresh.
    """
    module = core.get_module(module_name)
    live = getattr(module, "dxt_records" if dxt else "records", None)
    if not live:
        return {}
    reuse = reuse or {}
    copies: Dict[int, Record] = {}
    for rec_id, rec in live.items():
        old = reuse.get(rec_id)
        copies[rec_id] = (old if old is not None and old.stamp == rec.stamp
                          else rec.copy())
    return copies


def get_module_records(core: DarshanCore, module_name: str
                       ) -> Dict[int, CounterRecord]:
    """Deep copy of the counter records of a module ("POSIX" or "STDIO")."""
    return copy_records(core, module_name)


def get_dxt_records(core: DarshanCore, module_name: str = "POSIX"
                    ) -> Dict[int, DxtRecord]:
    """Deep copy of the DXT segment records attached to a counter module."""
    return copy_records(core, module_name, dxt=True)


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
