"""Darshan log serialization and the pydarshan-style reader.

Real Darshan writes a compressed binary log at process exit which is then
analysed post-hoc with ``darshan-util`` / pydarshan.  The reproduction keeps
the same workflow — a compressed, self-describing container with a job
header, name records, per-module counter records and DXT segments — but uses
gzip-compressed JSON as the container format (the substitution is recorded
in DESIGN.md; every analysis in this repository works off the in-memory
structures, the file format only exists so the "post-execution log analysis"
row of Table I can be exercised end to end).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.darshan.counters import read_size_histogram
from repro.darshan.dxt import DxtRecord
from repro.darshan.records import CounterRecord
from repro.darshan.runtime import DarshanCore

#: Magic string identifying the log container.
LOG_MAGIC = "DARSHAN-REPRO-LOG"
LOG_FORMAT_VERSION = 1


@dataclass
class DarshanLog:
    """In-memory representation of a Darshan log."""

    header: Dict[str, object]
    name_records: Dict[int, str]
    records: Dict[str, Dict[int, CounterRecord]]
    dxt_records: Dict[str, Dict[int, DxtRecord]] = field(default_factory=dict)
    partial_modules: List[str] = field(default_factory=list)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_core(cls, core: DarshanCore) -> "DarshanLog":
        """Build a log from a live (or shut down) Darshan runtime."""
        records: Dict[str, Dict[int, CounterRecord]] = {}
        dxt_records: Dict[str, Dict[int, DxtRecord]] = {}
        partial: List[str] = []
        for name, module in core.modules.items():
            recs = getattr(module, "records", None)
            if recs is not None:
                records[name] = {rid: rec.copy() for rid, rec in recs.items()}
            dxt = module.dxt_records
            if dxt:
                dxt_records[f"DXT_{name}"] = dxt
            if getattr(module, "partial_flag", False):
                partial.append(name)
        return cls(
            header=core.job_header(),
            name_records={rid: nr.name for rid, nr in core.name_records.items()},
            records=records,
            dxt_records=dxt_records,
            partial_modules=partial,
        )

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "magic": LOG_MAGIC,
            "format_version": LOG_FORMAT_VERSION,
            "header": self.header,
            "name_records": {str(k): v for k, v in self.name_records.items()},
            "records": {
                module: {str(rid): rec.as_dict() for rid, rec in recs.items()}
                for module, recs in self.records.items()
            },
            "dxt_records": {
                module: {str(rid): rec.as_dict() for rid, rec in recs.items()}
                for module, recs in self.dxt_records.items()
            },
            "partial_modules": list(self.partial_modules),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DarshanLog":
        if data.get("magic") != LOG_MAGIC:
            raise ValueError("not a darshan-repro log")
        return cls(
            header=dict(data["header"]),
            name_records={int(k): str(v) for k, v in data["name_records"].items()},
            records={
                module: {int(rid): CounterRecord.from_dict(rec)
                         for rid, rec in recs.items()}
                for module, recs in data["records"].items()
            },
            dxt_records={
                module: {int(rid): DxtRecord.from_dict(rec)
                         for rid, rec in recs.items()}
                for module, recs in data.get("dxt_records", {}).items()
            },
            partial_modules=list(data.get("partial_modules", [])),
        )

    def write(self, path: str) -> str:
        """Write the compressed log to ``path`` (host filesystem)."""
        payload = json.dumps(self.to_dict()).encode()
        with gzip.open(path, "wb") as handle:
            handle.write(payload)
        return path

    @classmethod
    def read(cls, path: str) -> "DarshanLog":
        """Read a compressed log from ``path``."""
        with gzip.open(path, "rb") as handle:
            data = json.loads(handle.read().decode())
        return cls.from_dict(data)

    # -- pydarshan-style report helpers -------------------------------------------
    def modules(self) -> List[str]:
        return sorted(self.records)

    def path_of(self, record_id: int) -> Optional[str]:
        return self.name_records.get(record_id)

    def module_totals(self, module: str) -> Dict[str, int]:
        """Sum of every integer counter over all records of a module."""
        totals: Dict[str, int] = {}
        for rec in self.records.get(module, {}).values():
            for key, value in rec.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def module_time_totals(self, module: str) -> Dict[str, float]:
        """Sum of cumulative time counters over all records of a module."""
        totals: Dict[str, float] = {}
        for rec in self.records.get(module, {}).values():
            for key, value in rec.fcounters.items():
                if key.endswith("_TIME"):
                    totals[key] = totals.get(key, 0.0) + value
        return totals

    def read_size_histogram(self, module: str = "POSIX") -> Dict[str, int]:
        """Aggregated access-size histogram of reads, by Darshan bucket."""
        totals = self.module_totals(module)
        return read_size_histogram(totals, module)

    def file_sizes(self, module: str = "POSIX") -> Dict[str, int]:
        """Per-file maximum byte read/written + 1 (a file-size proxy)."""
        sizes = {}
        prefix = module
        for rid, rec in self.records.get(module, {}).items():
            path = self.path_of(rid) or f"record-{rid:#x}"
            max_read = rec.counters.get(f"{prefix}_MAX_BYTE_READ", 0)
            max_written = rec.counters.get(f"{prefix}_MAX_BYTE_WRITTEN", 0)
            sizes[path] = max(max_read, max_written) + 1
        return sizes

    def agg_ioops(self, module: str = "POSIX") -> Dict[str, int]:
        """Operation counts in the shape pydarshan's ``agg_ioops`` returns."""
        totals = self.module_totals(module)
        keys = ("OPENS", "READS", "WRITES", "SEEKS", "STATS", "FSYNCS",
                "FLUSHES")
        return {key.lower(): totals.get(f"{module}_{key}", 0) for key in keys
                if f"{module}_{key}" in totals}

    def summary(self) -> str:
        """Human-readable multi-line summary (darshan-parser style)."""
        lines = [
            f"# darshan log version: {self.header.get('version')}",
            f"# exe: {self.header.get('exe')}",
            f"# nprocs: {self.header.get('nprocs')}",
            f"# run time: {self.header.get('run_time'):.3f} s",
        ]
        for module in self.modules():
            totals = self.module_totals(module)
            nrecords = len(self.records[module])
            lines.append(f"# module {module}: {nrecords} records"
                         + (" (partial)" if module in self.partial_modules else ""))
            for key in sorted(totals):
                if totals[key]:
                    lines.append(f"{module}\t{key}\t{totals[key]}")
        return "\n".join(lines)
