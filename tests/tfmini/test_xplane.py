"""XLine columns export exactly what a list of XEvents exported.

Random events, some through the TraceMe recorder and some appended to
plane-built lines, are recorded both into the columns and into a copy of
the list-of-``XEvent`` implementation the columns replaced.  The Chrome
trace events, their JSON and the ``events`` view must be equal.
"""

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

import pytest

from repro.tfmini.profiler import (
    TraceMeRecorder,
    XEvent,
    XSpace,
    to_trace_events,
)

NAMES = ("ReadFile", "DecodeJpeg", "Cast", "train_step", "pread")
STATS = ("path", "bytes", "offset", "length", "op")


@dataclass
class _ListLine:
    name: str
    events: List[XEvent] = field(default_factory=list)


def _reference_trace_events(space, lines: Dict[str, Dict[str, _ListLine]]
                            ) -> List[dict]:
    """``to_trace_events`` as it was when a line was a list of XEvents."""
    events: List[dict] = []
    pid = 0
    for plane_name in sorted(lines):
        plane = lines[plane_name]
        pid += 1
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": plane_name}})
        tid = 0
        for line_name in sorted(plane):
            line = plane[line_name]
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


def _stat_value(rng: random.Random) -> Any:
    kind = rng.randrange(8)
    if kind < 3:
        return rng.randint(0, 1 << 40)
    if kind < 5:
        return rng.choice(("read", "write", f"/data/f{rng.randrange(50)}"))
    return rng.choice((-(1 << 63), (1 << 63) - 1, 1 << 63, True, 0.5, None))


@pytest.mark.parametrize("seed", range(6))
def test_columns_export_what_the_event_lists_exported(seed):
    rng = random.Random(seed)
    space = XSpace(start_time=rng.uniform(0.0, 2.0))
    recorder = TraceMeRecorder()
    recorder.start()
    reference: Dict[str, Dict[str, _ListLine]] = {}
    for _ in range(300):
        name = rng.choice(NAMES)
        start = space.start_time + rng.uniform(0.0, 5.0)
        duration = rng.uniform(0.0, 1e-3)
        stats = {stat: _stat_value(rng)
                 for stat in rng.sample(STATS, rng.randint(1, 3))}
        if rng.random() < 0.5:
            plane, thread = "/host:CPU", rng.choice(("host", "input"))
            recorder.record(name, start, start + duration, thread=thread,
                            **stats)
            # The recorder stores the duration it computes.
            duration = (start + duration) - start
        else:
            plane, thread = "/host:files", f"file-{rng.randrange(12)}"
            space.plane(plane).line(thread).append(name, start, duration,
                                                   stats)
        line = reference.setdefault(plane, {}).setdefault(
            thread, _ListLine(thread))
        line.events.append(XEvent(name, start, duration, stats))
    space.plane("/host:CPU").lines.update(recorder.consume())

    got = to_trace_events(space)
    want = _reference_trace_events(space, reference)
    assert got == want
    assert [[type(v) for v in e["args"].values()] for e in got] == \
        [[type(v) for v in e["args"].values()] for e in want]
    assert json.dumps(got) == json.dumps(want)
    for plane_name, lines in reference.items():
        plane = space.find_plane(plane_name)
        assert sorted(plane.lines) == sorted(lines)
        for line_name, line in lines.items():
            assert plane.lines[line_name].events == line.events
            assert plane.lines[line_name].event_count == len(line.events)


def test_names_are_stored_once_per_table():
    recorder = TraceMeRecorder()
    recorder.start()
    for i in range(100):
        recorder.record("ReadFile", i, i + 1.0, thread=f"t{i % 2}",
                        path=f"/data/f{i}", bytes=i)
    lines = recorder.consume()
    assert len(lines) == 2
    first, second = lines.values()
    assert first.names is second.names
    assert list(first.names) == ["ReadFile", ("path", True), ("bytes", False)]
