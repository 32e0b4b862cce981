"""XSpace-like profile containers and Chrome trace-event export.

The TensorFlow runtime gathers what every tracer collected into an
``XSpace`` protobuf with one ``XPlane`` per data source (host CPU, each GPU,
and — with tf-Darshan — a POSIX I/O plane), each holding named ``XLine``
timelines of ``XEvent`` spans.  TensorBoard's TraceViewer consumes the
derived ``trace.json.gz`` in the Chrome trace-event format.  The
reproduction keeps the space and its planes as dataclasses and exports
them as a gzip-compressed Chrome trace.

An ``XLine`` keeps its events in XPlane's own layout: per event an integer
name id, a start and a duration, and its stats as (stat-name id, value)
pairs, with each name stored once in a table its lines share (XPlane's
``event_metadata`` and ``stat_metadata``).  No object exists per event
until a reader asks for one.
"""

from __future__ import annotations

import gzip
import json
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Stat values an ``array('q')`` holds (TF's ``int64_value``).
_INT64 = 1 << 63


@dataclass
class XEvent:
    """One span on a timeline: the value :attr:`XLine.events` builds."""

    name: str
    start: float
    duration: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class XLine:
    """One named timeline (a thread, a GPU stream, or one file).

    ``names`` maps each event name, and each stat's ``(name, by_ref)``
    key, to its id, in id order; lines built by one recorder or one plane
    share it.  An int stat that fits in 64 bits is stored in the value
    column itself; any other value is stored by reference, and the value
    column holds its index in ``_refs``, so every value keeps its type.
    """

    __slots__ = ("name", "names", "_name_ids", "_starts", "_durations",
                 "_stat_ends", "_stat_ids", "_stat_values", "_refs")

    def __init__(self, name: str, names: Dict[Any, int]):
        self.name = name
        self.names = names
        self._name_ids = array("I")
        self._starts = array("d")
        self._durations = array("d")
        #: Per event, the end of its stats in the stat columns.
        self._stat_ends = array("I")
        self._stat_ids = array("I")
        self._stat_values = array("q")
        self._refs: List[Any] = []

    def _id(self, key: Any) -> int:
        names = self.names
        name_id = names.get(key)
        if name_id is None:
            name_id = names[key] = len(names)
        return name_id

    def append(self, name: str, start: float, duration: float,
               stats: Mapping[str, Any]) -> None:
        """Append one event; ``stats`` keep their order."""
        self._name_ids.append(self._id(name))
        self._starts.append(start)
        self._durations.append(duration)
        for stat, value in stats.items():
            if type(value) is int and -_INT64 <= value < _INT64:
                self._stat_ids.append(self._id((stat, False)))
            else:
                self._stat_ids.append(self._id((stat, True)))
                self._refs.append(value)
                value = len(self._refs) - 1
            self._stat_values.append(value)
        self._stat_ends.append(len(self._stat_ids))

    def rows(self) -> Iterator[Tuple[str, float, float, Dict[str, Any]]]:
        """Each event as ``(name, start, duration, stats)``, in order, with
        a new stats dict per event."""
        keys = list(self.names)
        stat_ids, values, refs = self._stat_ids, self._stat_values, self._refs
        first = 0
        for name_id, start, duration, last in zip(
                self._name_ids, self._starts, self._durations,
                self._stat_ends):
            stats = {}
            for k in range(first, last):
                stat, by_ref = keys[stat_ids[k]]
                stats[stat] = refs[values[k]] if by_ref else values[k]
            first = last
            yield keys[name_id], start, duration, stats

    @property
    def events(self) -> List[XEvent]:
        """New :class:`XEvent` objects on every access (a cold-path view)."""
        return [XEvent(*row) for row in self.rows()]

    @property
    def event_count(self) -> int:
        return len(self._starts)


@dataclass
class XPlane:
    """All timelines contributed by one data source (one tracer)."""

    name: str
    lines: Dict[str, XLine] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: The names table of the lines :meth:`line` builds.
    names: Dict[Any, int] = field(default_factory=dict, repr=False)

    def line(self, name: str) -> XLine:
        if name not in self.lines:
            self.lines[name] = XLine(name, self.names)
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
            for name, start, duration, stats in line.rows():
                events.append({
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": name,
                    "ts": (start - space.start_time) * 1e6,
                    "dur": duration * 1e6,
                    "args": stats,
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
