"""TraceMe recorder: host-side activity tracing.

TensorFlow annotates host work with ``TraceMe`` objects; while a profiling
session is active the recorder keeps the events, and the host tracer turns
them into the trace the TensorBoard TraceViewer shows.  The recorder is
always installed but only records while started, so instrumentation is free
when profiling is off — mirroring the real implementation.  Each span is
recorded once, as a row of its thread's
:class:`~repro.tfmini.profiler.xplane.XLine`, which the host plane exports;
the recorder's lines share one table of event and stat names.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.tfmini.profiler.xplane import XLine


class TraceMeRecorder:
    """Collects host spans, one line per thread, while recording is active."""

    def __init__(self):
        self._active = False
        self._lines: Dict[str, XLine] = {}
        #: Event and stat names by id, shared by every line recorded.
        self._names: Dict[Any, int] = {}
        #: Events recorded since the recorder was created (for statistics).
        self.total_recorded = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Begin recording host events."""
        self._active = True

    def stop(self) -> None:
        """Stop recording host events (already recorded events are kept)."""
        self._active = False

    def consume(self) -> Dict[str, XLine]:
        """Return and clear the recorded lines, in the order of their first
        events (called by the host tracer)."""
        lines, self._lines = self._lines, {}
        return lines

    # -- recording --------------------------------------------------------------
    def record(self, name: str, start: float, end: float, thread: str = "host",
               **metadata: Any) -> None:
        """Record one completed span (no-op while inactive)."""
        if not self._active:
            return
        line = self._lines.get(thread)
        if line is None:
            line = self._lines[thread] = XLine(thread, self._names)
        line.append(name, start, end - start, metadata)
        self.total_recorded += 1
