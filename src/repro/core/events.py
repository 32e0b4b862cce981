"""Conversion of DXT segments into TraceViewer timelines.

For a profile that is exported to a log directory, tf-Darshan adds a plane
in which every file Darshan saw becomes one timeline and every POSIX
read/write segment becomes one event — the view used in Fig. 8 (zero-length
reads terminating every file) and Fig. 10 (the POSIX segments belonging to
one TensorFlow ReadFile op) — and a second plane for the STDIO (checkpoint)
segments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.darshan.dxt import DxtSegment
from repro.tfmini.profiler.xplane import XPlane
from repro.core.wrapper import SnapshotDelta

#: Name of the plane tf-Darshan adds to the XSpace.
DARSHAN_PLANE_NAME = "/host:tf-Darshan POSIX"
DARSHAN_STDIO_PLANE_NAME = "/host:tf-Darshan STDIO"

#: Per module: its plane's name and the event names of a zero-length read,
#: a read and a write segment.
_PLANES = {
    "POSIX": (DARSHAN_PLANE_NAME, ("pread (zero-length)", "pread", "pwrite")),
    "STDIO": (DARSHAN_STDIO_PLANE_NAME, ("fread", "fread", "fwrite")),
}


def build_plane(module: str, dxt: Dict[int, List[DxtSegment]],
                resolve_name: Callable[[int], Optional[str]]) -> XPlane:
    """The ``POSIX`` or ``STDIO`` timeline plane of a window's DXT segments
    ``dxt``: one line per file, one event per segment, in segment order."""
    plane_name, (zero_read, read, write) = _PLANES[module]
    plane = XPlane(plane_name)
    for record_id, segments in sorted(dxt.items()):
        line = plane.line(resolve_name(record_id) or f"record-{record_id:#x}")
        for segment in segments:
            if segment.op == "read":
                name = read if segment.length else zero_read
            else:
                name = write
            line.append(name, segment.start_time, segment.duration,
                        {"offset": segment.offset, "length": segment.length,
                         "op": segment.op})
    plane.stats["num_files"] = len(dxt)
    plane.stats["num_events"] = plane.event_count
    return plane


def zero_length_read_files(delta: SnapshotDelta,
                           resolve_name: Callable[[int], Optional[str]]
                           ) -> List[str]:
    """Paths whose final traced read was a zero-length read (Fig. 8)."""
    out: List[str] = []
    for record_id, segments in delta.dxt_posix.items():
        reads = [s for s in segments if s.op == "read"]
        if reads and reads[-1].length == 0:
            out.append(resolve_name(record_id) or f"record-{record_id:#x}")
    return sorted(out)


def reads_overlapping(delta: SnapshotDelta, start: float, end: float
                      ) -> Dict[int, List[DxtSegment]]:
    """Segments overlapping a host-op window (how Fig. 10 relates a
    TensorFlow ReadFile op to its POSIX segments by time range)."""
    out: Dict[int, List[DxtSegment]] = {}
    for record_id, segments in delta.dxt_posix.items():
        hits = [s for s in segments if s.end_time > start and s.start_time < end]
        if hits:
            out[record_id] = hits
    return out
