"""Span recording with Chrome-trace/Perfetto-compatible output.

Fleet spans share the event-shape conventions of
:class:`repro.tfmini.profiler.xplane.XEvent` — ``name``, ``start``,
``duration`` and ``metadata``, on the timeline of one ``thread`` (an
``XLine``) — so fleet traces (queue-wait → run → store per job) and the
simulated workload's profiler traces can be read by the same tooling and
viewed side by side.

Two output formats, both Chrome trace event format (the JSON the
``chrome://tracing`` viewer and https://ui.perfetto.dev load natively):

* :meth:`SpanRecorder.write_jsonl` — one complete-event object per line,
  streamable and cat-able, the shape the golden tests pin.
* :meth:`SpanRecorder.write_chrome_trace` — the ``{"traceEvents": [...]}``
  wrapper with thread-name metadata events, what a campaign run writes as
  ``trace.json``.

Timestamps are unix seconds in span objects (matching the queue's lease
and result documents) and microseconds on the wire (what the trace-event
spec requires).

>>> recorder = SpanRecorder(process="fleet")
>>> span = recorder.record("run", start=10.0, end=10.5, thread="worker-1",
...                        metadata={"job": "abc"})
>>> event = recorder.to_chrome_events()[0]
>>> event["ph"], event["dur"]
('X', 500000)
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from time import time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional


@dataclass(frozen=True)
class Span:
    """One completed activity span (XEvent field conventions)."""

    name: str
    start: float
    end: float
    thread: str = "main"
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_chrome_event(self, pid: int, tid: int) -> Dict[str, Any]:
        """This span as a Chrome trace complete event ("ph": "X")."""
        event = {
            "name": self.name,
            "ph": "X",
            "ts": int(self.start * 1_000_000),
            "dur": max(0, int(self.duration * 1_000_000)),
            "pid": pid,
            "tid": tid,
        }
        if self.metadata:
            event["args"] = dict(self.metadata)
        return event


class SpanRecorder:
    """Thread-safe span collector with Chrome-trace writers.

    Threads are logical lanes ("worker-1", "broker"), mapped to stable
    integer ``tid`` values in first-seen order; ``process`` names the
    trace's single ``pid`` lane.
    """

    def __init__(self, process: str = "fleet", pid: int = 1):
        self.process = process
        self.pid = pid
        self._lock = Lock()
        self._spans: List[Span] = []

    def record(self, name: str, start: float, end: float,
               thread: str = "main",
               metadata: Optional[Mapping[str, Any]] = None) -> Span:
        """Record one completed span and return it."""
        span = Span(name=name, start=float(start), end=float(end),
                    thread=thread, metadata=dict(metadata or {}))
        with self._lock:
            self._spans.append(span)
        return span

    def add(self, spans: Iterable[Span]) -> None:
        """Record already-built spans (e.g. reconstructed from queue
        result records)."""
        spans = list(spans)
        with self._lock:
            self._spans.extend(spans)

    @contextmanager
    def span(self, name: str, thread: str = "main",
             **metadata: Any) -> Iterator[Dict[str, Any]]:
        """Record the wrapped block as a span (wall-clock unix time).

        Yields the metadata dict so the block can attach results::

            with recorder.span("claim", thread="worker-1") as meta:
                meta["key"] = item.key
        """
        meta = dict(metadata)
        start = time()
        try:
            yield meta
        finally:
            self.record(name, start, time(), thread=thread, metadata=meta)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- Chrome trace output -------------------------------------------------
    def _thread_ids(self, spans: List[Span]) -> Dict[str, int]:
        tids: Dict[str, int] = {}
        for span in spans:
            if span.thread not in tids:
                tids[span.thread] = len(tids) + 1
        return tids

    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Every recorded span as Chrome complete events, start-ordered."""
        spans = sorted(self.spans(), key=lambda s: (s.start, s.end))
        tids = self._thread_ids(spans)
        return [span.to_chrome_event(self.pid, tids[span.thread])
                for span in spans]

    def write_jsonl(self, path) -> int:
        """Write one Chrome complete event per line; returns the count."""
        events = self.to_chrome_events()
        lines = [json.dumps(event, sort_keys=True) for event in events]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                              encoding="utf-8")
        return len(events)

    def write_chrome_trace(self, path) -> int:
        """Write a ``{"traceEvents": [...]}`` trace.json; returns the span
        count.  Thread-name metadata events (``"ph": "M"``) label the
        lanes so Perfetto shows "worker-1" instead of "tid 3"."""
        spans = sorted(self.spans(), key=lambda s: (s.start, s.end))
        tids = self._thread_ids(spans)
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": self.pid,
            "args": {"name": self.process},
        }]
        for thread, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M",
                           "pid": self.pid, "tid": tid,
                           "args": {"name": thread}})
        events.extend(span.to_chrome_event(self.pid, tids[span.thread])
                      for span in spans)
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        Path(path).write_text(json.dumps(payload, sort_keys=True),
                              encoding="utf-8")
        return len(spans)


def spans_from_result_records(records: Mapping[str, Mapping[str, Any]],
                              ) -> List[Span]:
    """Rebuild per-job queue-wait → run → store spans from queue result
    records.

    Workers attach a ``timing`` document to each result they commit
    (see :meth:`repro.campaign.dist.queue.WorkQueue.complete`)::

        {"enqueued_at": ..., "claimed_at": ..., "started_at": ...,
         "finished_at": ..., "stored_at": ...}

    Each phase becomes one span on the claiming worker's lane; records
    without timing (old workers, cache hits served before claim) are
    skipped.  The spans drop straight into a :class:`SpanRecorder` for
    ``trace.json`` output.
    """
    spans: List[Span] = []
    for name, record in sorted(records.items()):
        timing = record.get("timing") or {}
        worker = str(record.get("worker", "worker"))
        meta = {"job": name, "attempts": record.get("attempts"),
                "cached": bool(record.get("cached"))}
        phases = (
            ("queue-wait", "enqueued_at", "claimed_at"),
            ("run", "started_at", "finished_at"),
            ("store", "finished_at", "stored_at"),
        )
        for phase, start_key, end_key in phases:
            start, end = timing.get(start_key), timing.get(end_key)
            if start is None or end is None or end < start:
                continue
            spans.append(Span(name=phase, start=float(start),
                              end=float(end), thread=worker,
                              metadata=dict(meta)))
    return spans
