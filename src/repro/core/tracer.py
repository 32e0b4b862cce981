"""``DarshanTracer``: the tf-Darshan profiler plugged into TensorFlow.

The tracer implements the same ``ProfilerInterface`` the host and CUPTI
tracers implement, so the TensorFlow runtime starts and stops it with every
profiling session regardless of how the session was initiated (TensorBoard
callback, manual API, or the interactive server).  On start it makes sure
Darshan is attached and snapshots the live records; on stop it snapshots
again; at collection time it diffs the snapshots, runs the in-situ analysis
and (optionally) converts the DXT segments into TraceViewer timelines.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.tfmini.profiler.session import ProfilerOptions
from repro.tfmini.profiler.tracers import ProfilerInterface
from repro.tfmini.profiler.xplane import XSpace
from repro.core.analysis import InSituAnalyzer, IOProfile
from repro.core.attach import get_attachment
from repro.core.config import TfDarshanOptions
from repro.core.events import build_posix_plane, build_stdio_plane
from repro.core.wrapper import DarshanMiddleman, Snapshot


class DarshanTracer(ProfilerInterface):
    """tf-Darshan's tracer (one instance per profiling session)."""

    name = "tf_darshan"

    def __init__(self, runtime, profiler_options: Optional[ProfilerOptions] = None,
                 options: Optional[TfDarshanOptions] = None):
        self.runtime = runtime
        self.env = runtime.env
        self.options = options or getattr(runtime, "_tf_darshan_options",
                                          None) or TfDarshanOptions()
        self.profiler_options = profiler_options
        self.attachment = get_attachment(runtime, self.options)
        self.middleman = DarshanMiddleman(self.attachment, self.options.costs)
        self.analyzer = InSituAnalyzer(self.env, self.options.costs)
        self.start_snapshot: Optional[Snapshot] = None
        self.stop_snapshot: Optional[Snapshot] = None
        #: The profile produced at collection time (also stored on the runtime).
        self.last_collected: Optional[IOProfile] = None

    # -- ProfilerInterface ------------------------------------------------------
    def start(self) -> Generator:
        """Attach (first session only) and snapshot the module buffers."""
        yield from self.attachment.attach()
        self.start_snapshot = yield from self.middleman.take_snapshot()

    def stop(self) -> Generator:
        """Snapshot the module buffers again at the end of the window."""
        self.stop_snapshot = yield from self.middleman.take_snapshot()

    def collect_data(self, space: XSpace) -> Generator:
        """Diff, analyse and export into the shared XSpace."""
        if self.start_snapshot is None or self.stop_snapshot is None:
            return
        delta = self.middleman.diff(self.start_snapshot, self.stop_snapshot)
        profile = yield from self.analyzer.analyze(delta)
        self.last_collected = profile
        self.runtime.last_io_profile = profile
        self.runtime.last_io_delta = delta

        logdir = self.profiler_options.logdir if self.profiler_options else None
        mode = self.options.resolve_export_mode(logdir)
        costs = self.options.costs
        per_record = (costs.export_per_record_full if mode == "full"
                      else costs.export_per_record_lite)
        per_segment = (costs.export_per_segment_full if mode == "full"
                       else costs.export_per_segment_lite)
        n_records = len(delta.posix) + len(delta.stdio)
        export_cost = (costs.per_session + per_record * n_records
                       + per_segment * delta.segment_count)

        if self.options.darshan.enable_dxt:
            posix_plane = build_posix_plane(delta, self.middleman.resolve_name)
            posix_plane.stats["summary"] = profile.summary()
            posix_plane.stats["read_bandwidth_mbps"] = (
                profile.posix_read_bandwidth / 1e6)
            space.planes[posix_plane.name] = posix_plane
            if delta.dxt_stdio:
                stdio_plane = build_stdio_plane(delta, self.middleman.resolve_name)
                space.planes[stdio_plane.name] = stdio_plane

        if export_cost > 0:
            yield self.env.timeout(export_cost)


def register_tf_darshan(runtime, options: Optional[TfDarshanOptions] = None):
    """Register the DarshanTracer factory with the runtime's profiler.

    After this call every profiling session — TensorBoard callback, manual
    start/stop or interactive capture — includes tf-Darshan, which is how
    the paper integrates with all three profiling modes.  Returns the
    factory so callers can unregister it again.
    """
    opts = options or TfDarshanOptions()
    runtime._tf_darshan_options = opts

    def factory(rt, profiler_options):
        return DarshanTracer(rt, profiler_options, opts)

    runtime.profiler_registry.register(factory)
    return factory
