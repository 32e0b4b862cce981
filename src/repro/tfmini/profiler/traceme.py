"""TraceMe recorder: host-side activity tracing.

TensorFlow annotates host work with ``TraceMe`` objects; while a profiling
session is active the recorder keeps the events, and the host tracer turns
them into the trace the TensorBoard TraceViewer shows.  The recorder is
always installed but only records while started, so instrumentation is free
when profiling is off — mirroring the real implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.sim import Environment


@dataclass(frozen=True)
class TraceMeEvent:
    """One host activity span."""

    name: str
    start: float
    end: float
    thread: str = "host"
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceMeRecorder:
    """Collects :class:`TraceMeEvent` objects while recording is active."""

    def __init__(self, env: Environment):
        self.env = env
        self._active = False
        self._events: List[TraceMeEvent] = []
        #: Events recorded since the recorder was created (for statistics).
        self.total_recorded = 0

    # -- lifecycle -----------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        """Begin recording host events."""
        self._active = True

    def stop(self) -> None:
        """Stop recording host events (already recorded events are kept)."""
        self._active = False

    def consume(self) -> List[TraceMeEvent]:
        """Return and clear the recorded events (called by the host tracer)."""
        events, self._events = self._events, []
        return events

    # -- recording --------------------------------------------------------------
    def record(self, name: str, start: float, end: float, thread: str = "host",
               **metadata: Any) -> None:
        """Record one completed span (no-op while inactive)."""
        if not self._active:
            return
        self._events.append(TraceMeEvent(name=name, start=start, end=end,
                                         thread=thread, metadata=dict(metadata)))
        self.total_recorded += 1

    def trace(self, name: str, generator: Generator, thread: str = "host",
              **metadata: Any) -> Generator:
        """Run ``generator`` and record its span (use with ``yield from``)."""
        start = self.env.now
        result = yield from generator
        self.record(name, start, self.env.now, thread=thread, **metadata)
        return result
