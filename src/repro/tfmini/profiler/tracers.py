"""Profiler tracer interface plus the two built-in tracers.

TensorFlow 2.2's profiler is organised around a ``ProfilerInterface`` with
``Start`` / ``Stop`` / ``CollectData``; the runtime instantiates every
registered tracer factory when a profiling session begins (Fig. 1 of the
paper).  The two tracers TensorFlow ships are reproduced here — the host
tracer fed by the TraceMe recorder and the CUPTI-style device tracer fed by
the GPU kernel logs — and tf-Darshan's ``DarshanTracer`` (in
:mod:`repro.core.tracer`) plugs into the same registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.tfmini.profiler.xplane import XSpace

#: Plane names used by the built-in tracers (mirroring TF's naming scheme).
HOST_PLANE_NAME = "/host:CPU"
GPU_PLANE_PREFIX = "/device:GPU"


@dataclass(frozen=True)
class TracerCosts:
    """Simulated cost of profiler data handling (the TF Profiler overhead)."""

    #: Per host event: recording bookkeeping charged at collection time.
    per_host_event: float = 80e-6
    #: Per device (CUPTI) event processed at collection time.
    per_device_event: float = 12e-6
    #: Fixed cost of starting or stopping one tracer.
    per_session: float = 2e-3


#: The one calibration the built-in tracers charge.
COSTS = TracerCosts()


class ProfilerInterface:
    """Base class all tracers implement (Start / Stop / CollectData)."""

    name = "tracer"

    def start(self) -> Generator:
        """Begin collecting.  Simulation generator (may cost time)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def stop(self) -> Generator:
        """Stop collecting."""
        raise NotImplementedError
        yield  # pragma: no cover

    def collect_data(self, space: XSpace) -> Generator:
        """Export what was collected into the XSpace."""
        raise NotImplementedError
        yield  # pragma: no cover


class HostTracer(ProfilerInterface):
    """Collects host activity from the TraceMe recorder."""

    name = "host_tracer"

    def __init__(self, runtime):
        self.runtime = runtime
        self.env = runtime.env
        self._lines = {}
        self._running = False

    def start(self) -> Generator:
        yield self.env.timeout(COSTS.per_session)
        self.runtime.traceme.start()
        self._running = True

    def stop(self) -> Generator:
        if self._running:
            self.runtime.traceme.stop()
            self._lines = self.runtime.traceme.consume()
            self._running = False
        yield self.env.timeout(COSTS.per_session)

    def collect_data(self, space: XSpace) -> Generator:
        """Hand the recorder's lines, columns and all, to the host plane."""
        lines = self._lines
        self._lines = {}
        count = sum(line.event_count for line in lines.values())
        yield self.env.timeout(COSTS.per_host_event * count)
        plane = space.plane(HOST_PLANE_NAME)
        plane.lines.update(lines)
        plane.stats["num_events"] = plane.event_count


class DeviceTracer(ProfilerInterface):
    """CUPTI-like tracer reading the GPU kernel logs."""

    name = "device_tracer"

    def __init__(self, runtime):
        self.runtime = runtime
        self.env = runtime.env
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None

    def start(self) -> Generator:
        yield self.env.timeout(COSTS.per_session)
        self._window_start = self.env.now
        self._window_end = None

    def stop(self) -> Generator:
        self._window_end = self.env.now
        yield self.env.timeout(COSTS.per_session)

    def collect_data(self, space: XSpace) -> Generator:
        if self._window_start is None:
            return
        t0 = self._window_start
        t1 = self._window_end if self._window_end is not None else self.env.now
        total_events = 0
        for gpu in self.runtime.gpus:
            kernels = gpu.kernels_between(t0, t1)
            total_events += len(kernels)
            plane = space.plane(f"{GPU_PLANE_PREFIX}:{gpu.name}")
            line = plane.line("stream:compute")
            for kernel in kernels:
                line.append(kernel.name, kernel.start, kernel.duration,
                            {"correlation_id": kernel.correlation_id})
            plane.stats["device_utilization"] = gpu.utilization(t0, t1)
        yield self.env.timeout(COSTS.per_device_event * total_events)
