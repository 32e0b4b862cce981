"""TensorFlow-Profiler-like infrastructure: tracers, sessions, analyses."""

from repro.tfmini.profiler.analysis import (
    InputPipelineAnalysis,
    OverviewPage,
    StepStats,
    analyze_input_pipeline,
    build_overview,
    classify_input_bound,
)
from repro.tfmini.profiler.session import (
    ProfileResult,
    ProfilerRegistry,
    ProfilerServer,
    ProfilerSession,
    profiler_start,
    profiler_stop,
)
from repro.tfmini.profiler.traceme import TraceMeRecorder
from repro.tfmini.profiler.tracers import (
    GPU_PLANE_PREFIX,
    HOST_PLANE_NAME,
    DeviceTracer,
    HostTracer,
    ProfilerInterface,
    TracerCosts,
)
from repro.tfmini.profiler.xplane import (
    XEvent,
    XLine,
    XPlane,
    XSpace,
    read_trace_json,
    to_trace_events,
    write_trace_json,
)

__all__ = [
    "DeviceTracer",
    "GPU_PLANE_PREFIX",
    "HOST_PLANE_NAME",
    "HostTracer",
    "InputPipelineAnalysis",
    "OverviewPage",
    "ProfileResult",
    "ProfilerInterface",
    "ProfilerRegistry",
    "ProfilerServer",
    "ProfilerSession",
    "StepStats",
    "TraceMeRecorder",
    "TracerCosts",
    "XEvent",
    "XLine",
    "XPlane",
    "XSpace",
    "analyze_input_pipeline",
    "build_overview",
    "classify_input_bound",
    "profiler_start",
    "profiler_stop",
    "read_trace_json",
    "to_trace_events",
    "write_trace_json",
]
