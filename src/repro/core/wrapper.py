"""The tf-Darshan "middle man": snapshot and profile-data management.

The wrapper component of tf-Darshan (Section III-C) manages both symbol
patching (delegated to :mod:`repro.core.attach`) and profile data: when a
profiling session starts it snapshots the live Darshan module buffers
through the extraction API, snapshots them again when the session stops,
and the difference between the two snapshots is what the in-situ analysis
and the TraceViewer export operate on.  A snapshot copies no record: it
shares them with the live modules, which clone a record before writing it.
Nor does it copy a DXT segment: each module appends its segments to one
log that only grows, so a snapshot keeps the log and its length, and a
window's segments are the log rows between two lengths.  A diff counts
those rows; it builds them into segments only when a reader asks.

A window delta copies no counter of a record that is new in the window:
its :class:`RecordDelta` holds the end snapshot's counter arrays and reads
them through read-only views, which is safe because no record a snapshot
holds is ever written again.  A record that existed at the start costs
one element-wise subtraction per counter array.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, sub
from typing import Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.darshan.dxt import DxtLog, DxtSegment
# get_module_records is not called here, but perfbench/probes.py patches it
# on this module by name.
from repro.darshan.extraction import (  # noqa: F401
    get_module_records,
    get_runtime_info,
    snapshot_dxt,
    snapshot_records,
)
from repro.darshan.counters import CounterLayout
from repro.darshan.records import CounterRecord, CounterView
from repro.darshan.runtime import DarshanCore
from repro.core.attach import RuntimeAttachment
from repro.core.config import COSTS


@dataclass
class Snapshot:
    """The Darshan module buffers at one instant.

    Its records are read-only.  They are shared with the live module until
    the module next writes them, and a record that did not change between
    two snapshots is the same object in both.  ``dxt_posix`` and
    ``dxt_stdio`` are each module's DXT log with its length at ``time``
    (None with DXT off): the log's first ``length`` rows never change.
    ``core`` is the Darshan core they were read from (None before the
    first attach).
    """

    time: float
    posix: Dict[int, CounterRecord] = field(default_factory=dict)
    stdio: Dict[int, CounterRecord] = field(default_factory=dict)
    dxt_posix: Optional[Tuple[DxtLog, int]] = None
    dxt_stdio: Optional[Tuple[DxtLog, int]] = None
    core: Optional[DarshanCore] = field(default=None, repr=False)

    @property
    def record_count(self) -> int:
        return len(self.posix) + len(self.stdio)


@dataclass
class RecordDelta:
    """Per-file counter change between two snapshots.

    It holds counter arrays in the module's layout: the change in
    ``values`` and ``fvalues``, and the end-of-window integer counters in
    ``end_values``.  A record new in the window has no arrays of its own:
    all three are the end snapshot's, so they must not be modified.
    ``counters``, ``fcounters`` and ``end_counters`` read them by name
    through read-only views.
    """

    record_id: int
    path: Optional[str]
    module: str
    layout: CounterLayout = field(repr=False, compare=False)
    values: array
    fvalues: array
    #: Absolute end-of-window values useful for size estimates.
    end_values: array

    @property
    def counters(self) -> CounterView:
        return CounterView(self.layout.index, self.values)

    @property
    def fcounters(self) -> CounterView:
        return CounterView(self.layout.findex, self.fvalues)

    @property
    def end_counters(self) -> CounterView:
        return CounterView(self.layout.index, self.end_values)

    def get(self, name: str, default: int = 0) -> int:
        slot = self.layout.index.get(name)
        return default if slot is None else self.values[slot]


class DxtRows(NamedTuple):
    """One module's DXT log rows between two snapshots: the log, the two
    lengths and the end snapshot's record ids, whose order the files take."""

    log: DxtLog
    first: int
    stop: int
    record_ids: Tuple[int, ...]

    def segments(self, window_start: float, window_end: float
                 ) -> Dict[int, List[DxtSegment]]:
        """Per file, in the end snapshot's order, its rows that overlap the
        window: its reads, then its writes, sorted stably by start time."""
        logged = self.log.segments(self.first, self.stop)
        out: Dict[int, List[DxtSegment]] = {}
        for record_id in self.record_ids:
            lists = logged.get(record_id)
            if lists is None:
                continue
            reads, writes = lists
            segments = [s for s in reads + writes
                        if s.end_time > window_start and s.start_time < window_end]
            if segments:
                out[record_id] = sorted(segments, key=attrgetter("start_time"))
        return out


@dataclass
class SnapshotDelta:
    """Everything that happened between profile start and stop.

    ``segment_count`` counts the window's DXT segments.  ``dxt_posix`` and
    ``dxt_stdio`` build them, by record id, from the log rows on first
    read and keep what they built.
    """

    window_start: float
    window_end: float
    posix: List[RecordDelta] = field(default_factory=list)
    stdio: List[RecordDelta] = field(default_factory=list)
    segment_count: int = 0
    posix_rows: Optional[DxtRows] = field(default=None, repr=False)
    stdio_rows: Optional[DxtRows] = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start

    @cached_property
    def dxt_posix(self) -> Dict[int, List[DxtSegment]]:
        return self._segments(self.posix_rows)

    @cached_property
    def dxt_stdio(self) -> Dict[int, List[DxtSegment]]:
        return self._segments(self.stdio_rows)

    def _segments(self, rows: Optional[DxtRows]
                  ) -> Dict[int, List[DxtSegment]]:
        if rows is None:
            return {}
        return rows.segments(self.window_start, self.window_end)

    def total(self, module: str, counter: str) -> int:
        """Sum a counter delta over all records of one module."""
        records = self.posix if module == "POSIX" else self.stdio
        return sum(rec.get(counter) for rec in records)


class DarshanMiddleman:
    """tf-Darshan's per-process wrapper: the attachment and the profile data.

    It snapshots the live Darshan buffers, diffs two snapshots and keeps the
    last profiled window's delta and in-situ profile.  ``enable(runtime)``
    builds the one middleman of a process.
    """

    def __init__(self, attachment: RuntimeAttachment):
        self.attachment = attachment
        self.env = attachment.env
        #: The last profiled window's delta and its
        #: :class:`~repro.core.analysis.IOProfile` (None before the first).
        self.delta: Optional[SnapshotDelta] = None
        self.profile = None

    # -- snapshots ------------------------------------------------------------
    def take_snapshot(self) -> Generator:
        """Snapshot the module buffers; cost scales with the number of records."""
        core = self.attachment.core
        snapshot = Snapshot(time=self.env.now, core=core)
        if core is not None:
            snapshot.posix = snapshot_records(core, "POSIX")
            snapshot.stdio = snapshot_records(core, "STDIO")
            if self.attachment.options.darshan.enable_dxt:
                snapshot.dxt_posix = snapshot_dxt(core, "POSIX")
                snapshot.dxt_stdio = snapshot_dxt(core, "STDIO")
        cost = COSTS.snapshot_per_record * snapshot.record_count
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
        """Per-record difference between two snapshots (pure computation).

        A start snapshot of another core, taken before a re-attach built a
        new one, shares no record and no log row with the end snapshot, so
        the diff starts from nothing and every end record and row is new.
        """
        if start.core is not end.core:
            start = Snapshot(time=start.time)
        posix_rows, posix_count = self._rows(start.dxt_posix, end.dxt_posix,
                                             end.posix, start.time, end.time)
        stdio_rows, stdio_count = self._rows(start.dxt_stdio, end.dxt_stdio,
                                             end.stdio, start.time, end.time)
        return SnapshotDelta(
            window_start=start.time, window_end=end.time,
            posix=self._diff_module(start.posix, end.posix, "POSIX"),
            stdio=self._diff_module(start.stdio, end.stdio, "STDIO"),
            segment_count=posix_count + stdio_count,
            posix_rows=posix_rows, stdio_rows=stdio_rows)

    def _diff_module(self, before: Dict[int, CounterRecord],
                     after: Dict[int, CounterRecord], module: str
                     ) -> List[RecordDelta]:
        deltas: List[RecordDelta] = []
        for record_id, end_rec in after.items():
            start_rec = before.get(record_id)
            if start_rec is end_rec:
                continue
            if start_rec is None:
                # Everything is new.  Subtracting a zero start would return
                # each value unchanged, so the delta is the end record.
                values, fvalues = end_rec.values, end_rec.fvalues
            else:
                diff = list(map(sub, end_rec.values, start_rec.values))
                if not any(diff):
                    continue
                values = array("q", diff)
                # Elapsed times subtract; timestamps keep their end values.
                fvalues = end_rec.fvalues[:]
                for slot in end_rec.layout.elapsed:
                    fvalues[slot] -= start_rec.fvalues[slot]
            deltas.append(RecordDelta(
                record_id=record_id,
                path=self.resolve_name(record_id),
                module=module,
                layout=end_rec.layout,
                values=values,
                fvalues=fvalues,
                end_values=end_rec.values,
            ))
        return deltas

    @staticmethod
    def _rows(start: Optional[Tuple[DxtLog, int]],
              end: Optional[Tuple[DxtLog, int]],
              records: Dict[int, CounterRecord],
              window_start: float, window_end: float
              ) -> Tuple[Optional[DxtRows], int]:
        """The log rows between two snapshots of one core, and how many of
        them :meth:`DxtRows.segments` keeps: a row of a file in
        ``records`` (the end snapshot's) that overlaps the window."""
        if end is None:
            return None, 0
        log, stop = end
        first = start[1] if start is not None else 0
        count = sum(1 for record_id, begin, finish in zip(
            log.record_ids[first:stop], log.starts[first:stop],
            log.ends[first:stop])
            if finish > window_start and begin < window_end
            and record_id in records)
        return DxtRows(log, first, stop, tuple(records)), count
