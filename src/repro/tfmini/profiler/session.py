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

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional

from repro.tfmini.profiler.tracers import DeviceTracer, HostTracer, ProfilerInterface
from repro.tfmini.profiler.xplane import XSpace

#: Seconds per exported event (protobuf/JSON serialization + gzip): the
#: cost of writing a collected profile to the log directory.
PER_EXPORTED_EVENT = 55e-6


@dataclass
class ProfileResult:
    """What a profiling session produced."""

    xspace: XSpace
    start_time: float
    end_time: float
    logdir: Optional[str] = None
    exported_files: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


#: A tracer factory, called with the runtime and the session's log
#: directory.
TracerFactory = Callable[[object, Optional[str]], ProfilerInterface]


class ProfilerRegistry:
    """Registry of tracer factories, one per profiler implementation."""

    def __init__(self):
        self._factories: List[TracerFactory] = []

    def register(self, factory: TracerFactory) -> None:
        """Register a factory called with ``(runtime, logdir)`` at session
        start."""
        self._factories.append(factory)

    def create_tracers(self, runtime, logdir: Optional[str]
                       ) -> List[ProfilerInterface]:
        tracers: List[ProfilerInterface] = [HostTracer(runtime)]
        if runtime.gpus:
            tracers.append(DeviceTracer(runtime))
        for factory in self._factories:
            tracers.append(factory(runtime, logdir))
        return tracers


class ProfilerSession:
    """One start→stop profiling window.

    With a ``logdir`` the session exports trace.json.gz and the analysis
    protos there; without one the profile stays in memory only (the "lite"
    mode the manual STREAM validation uses).
    """

    def __init__(self, runtime, logdir: Optional[str] = None):
        self.runtime = runtime
        self.env = runtime.env
        self.logdir = logdir
        self.tracers = runtime.profiler_registry.create_tracers(runtime, logdir)
        self.start_time: Optional[float] = None
        self.result: Optional[ProfileResult] = None
        self._active = False

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
                               end_time=self.env.now, logdir=self.logdir)
        for tracer in self.tracers:
            yield from tracer.collect_data(space)
        if self.logdir is not None:
            exported = self.runtime.export_profile(space, self.logdir)
            result.exported_files.extend(exported)
            # Serialization cost proportional to the exported volume.
            yield self.env.timeout(PER_EXPORTED_EVENT * space.event_count)
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
                logdir: Optional[str] = None) -> Generator:
        """Profile for ``duration`` simulated seconds and return the result."""
        session = ProfilerSession(self.runtime, logdir)
        yield from session.start()
        yield self.runtime.env.timeout(duration)
        result = yield from session.stop()
        self.captures.append(result)
        return result


# -- module-level API mirroring tf.profiler.experimental -------------------------

def profiler_start(runtime, logdir: Optional[str] = None) -> Generator:
    """Start a global profiling session on the runtime (manual mode)."""
    if runtime.active_profiler_session is not None:
        raise RuntimeError("a profiler session is already active")
    session = ProfilerSession(runtime, logdir)
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
