"""DXT (Darshan eXtended Tracing) segment storage.

DXT keeps, per file, the individual read and write segments —
``(offset, length, start_time, end_time)`` — that the counter modules only
summarize.  tf-Darshan converts these segments into TensorBoard TraceViewer
timelines (one line per file, Fig. 8 and Fig. 10 of the paper).

A module appends its segments, for all of its files, to one
:class:`DxtLog` of typed-array columns.  The log only grows, so its state
at any instant is its length.  :class:`DxtSegment` and :class:`DxtRecord`
are the object views a window delta, the log file and the extraction API
build from it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class DxtSegment:
    """One traced I/O segment of a file."""

    op: str            # "read" or "write"
    offset: int
    length: int
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "offset": self.offset,
            "length": self.length,
            "start_time": self.start_time,
            "end_time": self.end_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DxtSegment":
        return cls(op=str(data["op"]), offset=int(data["offset"]),
                   length=int(data["length"]),
                   start_time=float(data["start_time"]),
                   end_time=float(data["end_time"]))


#: A file's read segments and write segments, each in the order traced.
Segments = Tuple[List[DxtSegment], List[DxtSegment]]


class DxtLog:
    """One module's DXT segments, one row per segment, in six columns.

    Rows are appended in the order the segments end and are never changed,
    so the first ``n`` rows are the log as it was when it held ``n``.  A
    row is 41 bytes: no object is built until :meth:`segments` reads it.
    """

    __slots__ = ("record_ids", "writes", "offsets", "lengths", "starts",
                 "ends")

    def __init__(self) -> None:
        self.record_ids = array("Q")
        #: 1 for a write, 0 for a read.
        self.writes = array("b")
        self.offsets = array("q")
        self.lengths = array("q")
        self.starts = array("d")
        self.ends = array("d")

    def __len__(self) -> int:
        return len(self.record_ids)

    def append(self, record_id: int, is_write: bool, offset: int,
               length: int, start: float, end: float) -> None:
        self.record_ids.append(record_id)
        self.writes.append(is_write)
        self.offsets.append(offset)
        self.lengths.append(length)
        self.starts.append(start)
        self.ends.append(end)

    def segments(self, first: int = 0, stop: Optional[int] = None
                 ) -> Dict[int, Segments]:
        """The segments of rows ``first`` to ``stop``, by record id in the
        order of each record's first row."""
        out: Dict[int, Segments] = {}
        rows = zip(self.record_ids[first:stop], self.writes[first:stop],
                   self.offsets[first:stop], self.lengths[first:stop],
                   self.starts[first:stop], self.ends[first:stop])
        for record_id, write, offset, length, start, end in rows:
            lists = out.get(record_id)
            if lists is None:
                lists = out[record_id] = ([], [])
            lists[write].append(DxtSegment("write" if write else "read",
                                           offset, length, start, end))
        return out


class DxtRecord:
    """All traced segments of one file (one Darshan record id)."""

    __slots__ = ("record_id", "rank", "read_segments", "write_segments",
                 "dropped_segments")

    def __init__(self, record_id: int, rank: int = 0):
        self.record_id = record_id
        self.rank = rank
        self.read_segments: List[DxtSegment] = []
        self.write_segments: List[DxtSegment] = []
        #: Segments not stored because the per-record bound was hit.
        self.dropped_segments: int = 0

    @property
    def segment_count(self) -> int:
        return len(self.read_segments) + len(self.write_segments)

    def as_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "rank": self.rank,
            "read_segments": [s.as_dict() for s in self.read_segments],
            "write_segments": [s.as_dict() for s in self.write_segments],
            "dropped_segments": self.dropped_segments,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DxtRecord":
        rec = cls(int(data["record_id"]), int(data.get("rank", 0)))
        rec.read_segments = [DxtSegment.from_dict(s) for s in data["read_segments"]]
        rec.write_segments = [DxtSegment.from_dict(s) for s in data["write_segments"]]
        rec.dropped_segments = int(data.get("dropped_segments", 0))
        return rec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DxtRecord id={self.record_id:#x} reads={len(self.read_segments)} "
                f"writes={len(self.write_segments)}>")
