"""tf-Darshan: fine-grained I/O profiling inside the TensorFlow profiler.

This package is the paper's contribution: the ``DarshanTracer`` profiler
plugin, the runtime attachment that patches the process's I/O symbols, the
middle-man snapshot/extraction layer, the in-situ analysis, the TensorBoard
Profile-plugin extension and the optimization advisors used in the case
studies.
"""

from repro.core.analysis import AccessPattern, IOProfile
from repro.core.advisor import (
    StagingAdvisor,
    StagingRecommendation,
    ThreadingAdvisor,
    ThreadingRecommendation,
)
from repro.core.attach import RuntimeAttachment
from repro.core.config import TfDarshanCosts, TfDarshanOptions
from repro.core.events import (
    DARSHAN_PLANE_NAME,
    DARSHAN_STDIO_PLANE_NAME,
    build_plane,
    reads_overlapping,
    zero_length_read_files,
)
from repro.core.session import (
    TfDarshanSession,
    WindowResult,
    enable,
    last_profile,
)
from repro.core.tensorboard import ProfilePluginData, build_plugin_data, render_histogram
from repro.core.tracer import DarshanTracer
from repro.core.wrapper import (
    DarshanMiddleman,
    RecordDelta,
    Snapshot,
    SnapshotDelta,
)

__all__ = [
    "AccessPattern",
    "DARSHAN_PLANE_NAME",
    "DARSHAN_STDIO_PLANE_NAME",
    "DarshanMiddleman",
    "DarshanTracer",
    "IOProfile",
    "ProfilePluginData",
    "RecordDelta",
    "RuntimeAttachment",
    "Snapshot",
    "SnapshotDelta",
    "StagingAdvisor",
    "StagingRecommendation",
    "TfDarshanCosts",
    "TfDarshanOptions",
    "TfDarshanSession",
    "ThreadingAdvisor",
    "ThreadingRecommendation",
    "WindowResult",
    "build_plane",
    "build_plugin_data",
    "enable",
    "last_profile",
    "reads_overlapping",
    "render_histogram",
    "zero_length_read_files",
]
