"""The tf-Darshan "middle man": snapshot and profile-data management.

The wrapper component of tf-Darshan (Section III-C) manages both symbol
patching (delegated to :mod:`repro.core.attach`) and profile data: when a
profiling session starts it copies the live Darshan module buffers through
the extraction API, copies them again when the session stops, and the
difference between the two snapshots is what the in-situ analysis and the
TraceViewer export operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.darshan.dxt import DxtRecord, DxtSegment
# get_module_records is not called here, but perfbench/probes.py patches it
# on this module by name.
from repro.darshan.extraction import (  # noqa: F401
    copy_records,
    get_module_records,
    get_runtime_info,
)
from repro.darshan.records import CounterRecord
from repro.darshan.runtime import DarshanCore
from repro.core.attach import RuntimeAttachment
from repro.core.config import TfDarshanCosts


@dataclass
class Snapshot:
    """Copy of the Darshan module buffers at one instant.

    Its records are read-only: a record that did not change between two
    snapshots of one :class:`DarshanMiddleman` is the same object in both.
    """

    time: float
    posix: Dict[int, CounterRecord] = field(default_factory=dict)
    stdio: Dict[int, CounterRecord] = field(default_factory=dict)
    dxt_posix: Dict[int, DxtRecord] = field(default_factory=dict)
    dxt_stdio: Dict[int, DxtRecord] = field(default_factory=dict)

    @property
    def record_count(self) -> int:
        return len(self.posix) + len(self.stdio)


@dataclass
class RecordDelta:
    """Per-file counter change between two snapshots."""

    record_id: int
    path: Optional[str]
    module: str
    counters: Dict[str, int]
    fcounters: Dict[str, float]
    #: Absolute end-of-window values useful for size estimates.
    end_counters: Dict[str, int] = field(default_factory=dict)

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)


@dataclass
class SnapshotDelta:
    """Everything that happened between profile start and stop."""

    window_start: float
    window_end: float
    posix: List[RecordDelta] = field(default_factory=list)
    stdio: List[RecordDelta] = field(default_factory=list)
    dxt_posix: Dict[int, List[DxtSegment]] = field(default_factory=dict)
    dxt_stdio: Dict[int, List[DxtSegment]] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start

    @property
    def segment_count(self) -> int:
        return (sum(len(s) for s in self.dxt_posix.values())
                + sum(len(s) for s in self.dxt_stdio.values()))

    def total(self, module: str, counter: str) -> int:
        """Sum a counter delta over all records of one module."""
        records = self.posix if module == "POSIX" else self.stdio
        return sum(rec.get(counter) for rec in records)


class DarshanMiddleman:
    """Takes snapshots of the live Darshan buffers and diffs them."""

    def __init__(self, attachment: RuntimeAttachment, costs: Optional[TfDarshanCosts] = None):
        self.attachment = attachment
        self.env = attachment.env
        self.costs = costs or attachment.options.costs
        # The last snapshot and the core it was read from: the next snapshot
        # of the same core copies only the records that changed since.  A
        # re-attached process has a fresh core whose stamps mean nothing here.
        self._last: Optional[Snapshot] = None
        self._last_core: Optional[DarshanCore] = None

    # -- snapshots ------------------------------------------------------------
    def take_snapshot(self) -> Generator:
        """Copy the module buffers; cost scales with the number of records."""
        core = self.attachment.core
        snapshot = Snapshot(time=self.env.now)
        if core is not None:
            base = self._last if core is self._last_core else Snapshot(0.0)
            snapshot.posix = copy_records(core, "POSIX", reuse=base.posix)
            snapshot.stdio = copy_records(core, "STDIO", reuse=base.stdio)
            if self.attachment.options.enable_dxt:
                snapshot.dxt_posix = copy_records(core, "POSIX", dxt=True,
                                                  reuse=base.dxt_posix)
                snapshot.dxt_stdio = copy_records(core, "STDIO", dxt=True,
                                                  reuse=base.dxt_stdio)
            self._last, self._last_core = snapshot, core
        cost = self.costs.snapshot_per_record * snapshot.record_count
        if cost > 0:
            yield self.env.timeout(cost)
        return snapshot

    def resolve_name(self, record_id: int) -> Optional[str]:
        core = self.attachment.core
        return core.lookup_name(record_id) if core is not None else None

    def runtime_info(self):
        """Live file counts etc. (``darshan_get_runtime_info``)."""
        if self.attachment.core is None:
            return None
        return get_runtime_info(self.attachment.core)

    # -- diffing ----------------------------------------------------------------
    def diff(self, start: Snapshot, end: Snapshot) -> SnapshotDelta:
        """Per-record difference between two snapshots (pure computation)."""
        delta = SnapshotDelta(window_start=start.time, window_end=end.time)
        delta.posix = self._diff_module(start.posix, end.posix, "POSIX")
        delta.stdio = self._diff_module(start.stdio, end.stdio, "STDIO")
        delta.dxt_posix = self._diff_dxt(start.dxt_posix, end.dxt_posix,
                                         start.time, end.time)
        delta.dxt_stdio = self._diff_dxt(start.dxt_stdio, end.dxt_stdio,
                                         start.time, end.time)
        return delta

    def _diff_module(self, before: Dict[int, CounterRecord],
                     after: Dict[int, CounterRecord], module: str
                     ) -> List[RecordDelta]:
        deltas: List[RecordDelta] = []
        for record_id, end_rec in after.items():
            start_rec = before.get(record_id)
            if start_rec is end_rec:
                continue
            counters: Dict[str, int] = {}
            fcounters: Dict[str, float] = {}
            changed = False
            for name, end_value in end_rec.counters.items():
                start_value = start_rec.counters.get(name, 0) if start_rec else 0
                diff = end_value - start_value
                counters[name] = diff
                if diff:
                    changed = True
            for name, end_value in end_rec.fcounters.items():
                start_value = start_rec.fcounters.get(name, 0.0) if start_rec else 0.0
                if name.endswith("_TIME") and not name.endswith("TIMESTAMP"):
                    fcounters[name] = end_value - start_value
                else:
                    fcounters[name] = end_value
            if start_rec is None:
                changed = True
            if changed:
                deltas.append(RecordDelta(
                    record_id=record_id,
                    path=self.resolve_name(record_id),
                    module=module,
                    counters=counters,
                    fcounters=fcounters,
                    end_counters=dict(end_rec.counters),
                ))
        return deltas

    @staticmethod
    def _diff_dxt(before: Dict[int, DxtRecord], after: Dict[int, DxtRecord],
                  window_start: float, window_end: float
                  ) -> Dict[int, List[DxtSegment]]:
        out: Dict[int, List[DxtSegment]] = {}
        for record_id, end_rec in after.items():
            start_rec = before.get(record_id)
            if start_rec is end_rec:
                continue
            skip_reads = len(start_rec.read_segments) if start_rec else 0
            skip_writes = len(start_rec.write_segments) if start_rec else 0
            segments = (end_rec.read_segments[skip_reads:]
                        + end_rec.write_segments[skip_writes:])
            segments = [s for s in segments
                        if s.end_time > window_start and s.start_time < window_end]
            if segments:
                out[record_id] = sorted(segments, key=lambda s: s.start_time)
        return out
