"""Profiler sessions, tracer registry and the ``tf.profiler``-style API.

Three ways of driving the profiler exist in TensorFlow 2.2 and all three are
supported by the reproduction (Section III-A of the paper):

* **automatically** through the Keras ``TensorBoard`` callback's
  ``profile_batch`` range,
* **manually** through ``profiler_start()`` / ``profiler_stop()``
  (``tf.profiler.experimental.start/stop``), and
* **interactively** through :class:`ProfilerServer`, which models the
  TensorBoard "capture profile" button triggering a bounded session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Optional

from repro.tfmini.profiler.tracers import DeviceTracer, HostTracer, ProfilerInterface
from repro.tfmini.profiler.xplane import XSpace, write_trace_json


@dataclass
class ProfilerOptions:
    """Options of one profiling session."""

    host_tracer: bool = True
    device_tracer: bool = True
    #: Export trace.json.gz and the analysis protos to the log directory
    #: (None keeps the profile in memory only — the "lite" mode the manual
    #: STREAM validation uses).
    logdir: Optional[str] = None


@dataclass
class ProfileResult:
    """What a profiling session produced."""

    xspace: XSpace
    start_time: float
    end_time: float
    logdir: Optional[str] = None
    exported_files: List[str] = field(default_factory=list)
    tracer_data: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


#: A tracer factory, called with the runtime and the session's options.
TracerFactory = Callable[[object, ProfilerOptions], ProfilerInterface]


class ProfilerRegistry:
    """Registry of tracer factories, one per profiler implementation."""

    def __init__(self):
        self._factories: List[TracerFactory] = []

    def register(self, factory: TracerFactory) -> None:
        """Register a factory called with ``(runtime, options)`` at session
        start."""
        self._factories.append(factory)

    def unregister(self, factory) -> None:
        self._factories.remove(factory)

    def create_tracers(self, runtime, options: ProfilerOptions
                       ) -> List[ProfilerInterface]:
        tracers: List[ProfilerInterface] = []
        if options.host_tracer:
            tracers.append(HostTracer(runtime))
        if options.device_tracer and runtime.gpus:
            tracers.append(DeviceTracer(runtime))
        for factory in self._factories:
            tracers.append(factory(runtime, options))
        return tracers


class ProfilerSession:
    """One start→stop profiling window."""

    def __init__(self, runtime, options: Optional[ProfilerOptions] = None):
        self.runtime = runtime
        self.env = runtime.env
        self.options = options or ProfilerOptions()
        self.tracers = runtime.profiler_registry.create_tracers(runtime, self.options)
        self.start_time: Optional[float] = None
        self.result: Optional[ProfileResult] = None
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> Generator:
        """Start every tracer."""
        if self._active:
            raise RuntimeError("profiler session already started")
        self.start_time = self.env.now
        for tracer in self.tracers:
            yield from tracer.start()
        self._active = True

    def stop(self) -> Generator:
        """Stop tracers, collect their data and export if requested.

        Returns a :class:`ProfileResult`.  The collection/export work is
        charged to the simulated clock — this is the moment the paper
        identifies as the dominant source of tf-Darshan overhead.
        """
        if not self._active:
            raise RuntimeError("profiler session is not running")
        self._active = False
        for tracer in self.tracers:
            yield from tracer.stop()
        space = XSpace(start_time=self.start_time, end_time=self.env.now)
        result = ProfileResult(xspace=space, start_time=self.start_time,
                               end_time=self.env.now, logdir=self.options.logdir)
        for tracer in self.tracers:
            yield from tracer.collect_data(space)
            data = getattr(tracer, "last_collected", None)
            if data is not None:
                result.tracer_data[tracer.name] = data
        if self.options.logdir is not None:
            exported = self.runtime.export_profile(space, self.options.logdir)
            result.exported_files.extend(exported)
            # Serialization cost proportional to the exported volume.
            yield self.env.timeout(self.runtime.profiler_costs.per_exported_event
                                   * space.event_count)
        self.result = result
        self.runtime.last_profile = result
        return result


class ProfilerServer:
    """Interactive profiling: TensorBoard connects and captures a window.

    ``tf.profiler.experimental.server.start(port)`` in real TensorFlow opens
    a gRPC service; TensorBoard's "capture profile" then runs a bounded
    session.  The reproduction models the capture request as a simulated
    process that profiles for ``duration`` seconds.
    """

    def __init__(self, runtime, port: int = 6009):
        self.runtime = runtime
        self.port = port
        self.captures: List[ProfileResult] = []

    def capture(self, duration: float,
                options: Optional[ProfilerOptions] = None) -> Generator:
        """Profile for ``duration`` simulated seconds and return the result."""
        session = ProfilerSession(self.runtime, options)
        yield from session.start()
        yield self.runtime.env.timeout(duration)
        result = yield from session.stop()
        self.captures.append(result)
        return result


# -- module-level API mirroring tf.profiler.experimental -------------------------

def profiler_start(runtime, logdir: Optional[str] = None,
                   options: Optional[ProfilerOptions] = None) -> Generator:
    """Start a global profiling session on the runtime (manual mode)."""
    if runtime.active_profiler_session is not None:
        raise RuntimeError("a profiler session is already active")
    opts = options or ProfilerOptions()
    if logdir is not None:
        # A copy: the caller's options may be shared with later sessions.
        opts = replace(opts, logdir=logdir)
    session = ProfilerSession(runtime, opts)
    yield from session.start()
    runtime.active_profiler_session = session
    return session


def profiler_stop(runtime) -> Generator:
    """Stop the global profiling session and return its result."""
    session = runtime.active_profiler_session
    if session is None:
        raise RuntimeError("no active profiler session")
    runtime.active_profiler_session = None
    result = yield from session.stop()
    return result
