"""XSpace-like profile containers and Chrome trace-event export.

The TensorFlow runtime gathers what every tracer collected into an
``XSpace`` protobuf with one ``XPlane`` per data source (host CPU, each GPU,
and — with tf-Darshan — a POSIX I/O plane), each holding named ``XLine``
timelines of ``XEvent`` spans.  TensorBoard's TraceViewer consumes the
derived ``trace.json.gz`` in the Chrome trace-event format.  The
reproduction keeps the containers as dataclasses and exports them as a
gzip-compressed Chrome trace.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class XEvent:
    """One span on a timeline."""

    name: str
    start: float
    duration: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class XLine:
    """One named timeline (a thread, a GPU stream, or one file)."""

    name: str
    events: List[XEvent] = field(default_factory=list)

    def add(self, event: XEvent) -> None:
        self.events.append(event)

    @property
    def event_count(self) -> int:
        return len(self.events)


@dataclass
class XPlane:
    """All timelines contributed by one data source (one tracer)."""

    name: str
    lines: Dict[str, XLine] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)

    def line(self, name: str) -> XLine:
        if name not in self.lines:
            self.lines[name] = XLine(name)
        return self.lines[name]

    @property
    def event_count(self) -> int:
        return sum(line.event_count for line in self.lines.values())


@dataclass
class XSpace:
    """The complete collected profile."""

    planes: Dict[str, XPlane] = field(default_factory=dict)
    #: Simulated time window the profile covers.
    start_time: float = 0.0
    end_time: float = 0.0

    def plane(self, name: str) -> XPlane:
        if name not in self.planes:
            self.planes[name] = XPlane(name)
        return self.planes[name]

    def find_plane(self, name: str) -> Optional[XPlane]:
        return self.planes.get(name)

    @property
    def event_count(self) -> int:
        return sum(plane.event_count for plane in self.planes.values())


# -- Chrome trace-event export ---------------------------------------------------

def to_trace_events(space: XSpace) -> List[dict]:
    """Flatten an XSpace into Chrome trace-event dictionaries.

    Timestamps are expressed in microseconds relative to the profile start,
    which is what the TraceViewer expects.
    """
    events: List[dict] = []
    pid = 0
    for plane_name in sorted(space.planes):
        plane = space.planes[plane_name]
        pid += 1
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": plane_name}})
        tid = 0
        for line_name in sorted(plane.lines):
            line = plane.lines[line_name]
            tid += 1
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name", "args": {"name": line_name}})
            for event in line.events:
                events.append({
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": event.name,
                    "ts": (event.start - space.start_time) * 1e6,
                    "dur": event.duration * 1e6,
                    "args": dict(event.metadata),
                })
    return events


def write_trace_json(space: XSpace, path: str) -> str:
    """Write the gzip-compressed ``trace.json.gz`` TensorBoard consumes."""
    payload = json.dumps({"traceEvents": to_trace_events(space)}).encode()
    with gzip.open(path, "wb") as handle:
        handle.write(payload)
    return path


def read_trace_json(path: str) -> List[dict]:
    """Read back a ``trace.json.gz`` file (used by tests and examples)."""
    with gzip.open(path, "rb") as handle:
        return json.loads(handle.read().decode())["traceEvents"]
