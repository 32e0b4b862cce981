"""DXT (Darshan eXtended Tracing) segment storage.

DXT records keep, per file, the individual read and write segments —
``(offset, length, start_time, end_time)`` — that the counter modules only
summarize.  tf-Darshan converts these segments into TensorBoard TraceViewer
timelines (one line per file, Fig. 8 and Fig. 10 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


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

    def add(self, segment: DxtSegment, max_segments: Optional[int] = None) -> None:
        """Append a segment, honouring the per-record memory bound."""
        target = self.read_segments if segment.op == "read" else self.write_segments
        if max_segments is not None and len(target) >= max_segments:
            self.dropped_segments += 1
            return
        target.append(segment)

    @property
    def segment_count(self) -> int:
        return len(self.read_segments) + len(self.write_segments)

    @property
    def stamp(self) -> int:
        """Grows with every :meth:`add`: segments are only ever appended, so
        a copy whose stamp equals its source's holds the same segments."""
        return (len(self.read_segments) + len(self.write_segments)
                + self.dropped_segments)

    def all_segments(self) -> List[DxtSegment]:
        """Read and write segments merged in time order."""
        return sorted(self.read_segments + self.write_segments,
                      key=lambda s: s.start_time)

    def copy(self) -> "DxtRecord":
        clone = DxtRecord(self.record_id, self.rank)
        clone.read_segments = list(self.read_segments)
        clone.write_segments = list(self.write_segments)
        clone.dropped_segments = self.dropped_segments
        return clone

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
