"""``DarshanTracer``: the tf-Darshan profiler plugged into TensorFlow.

The tracer implements the same ``ProfilerInterface`` the host and CUPTI
tracers implement, so the TensorFlow runtime starts and stops it with every
profiling session regardless of how the session was initiated (TensorBoard
callback, manual API, or the interactive server).  On start it makes sure
Darshan is attached and snapshots the live records; on stop it snapshots
again; at collection time it diffs the snapshots, runs the in-situ analysis
and, for a session that exports its profile, converts the DXT segments into
TraceViewer timelines.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.tfmini.profiler.tracers import ProfilerInterface
from repro.tfmini.profiler.xplane import XSpace
from repro.core.analysis import analyze
from repro.core.config import COSTS
from repro.core.events import build_plane
from repro.core.wrapper import DarshanMiddleman, Snapshot


class DarshanTracer(ProfilerInterface):
    """tf-Darshan's tracer (one instance per profiling session).

    It works through the process's one :class:`DarshanMiddleman` and keeps
    only the session's log directory and the window's two snapshots.
    """

    name = "tf_darshan"

    def __init__(self, middleman: DarshanMiddleman,
                 logdir: Optional[str] = None):
        self.middleman = middleman
        self.logdir = logdir
        self.start_snapshot: Optional[Snapshot] = None
        self.stop_snapshot: Optional[Snapshot] = None

    # -- ProfilerInterface ------------------------------------------------------
    def start(self) -> Generator:
        """Attach (first session only) and snapshot the module buffers."""
        yield from self.middleman.attachment.attach()
        self.start_snapshot = yield from self.middleman.take_snapshot()

    def stop(self) -> Generator:
        """Snapshot the module buffers again at the end of the window."""
        self.stop_snapshot = yield from self.middleman.take_snapshot()

    def collect_data(self, space: XSpace) -> Generator:
        """Diff, analyse and export into the shared XSpace."""
        if self.start_snapshot is None or self.stop_snapshot is None:
            return
        middleman = self.middleman
        delta = middleman.diff(self.start_snapshot, self.stop_snapshot)
        profile = yield from analyze(middleman.env, delta)
        middleman.delta = delta
        middleman.profile = profile

        options = middleman.attachment.options
        mode = options.resolve_export_mode(self.logdir)
        per_record = (COSTS.export_per_record_full if mode == "full"
                      else COSTS.export_per_record_lite)
        per_segment = (COSTS.export_per_segment_full if mode == "full"
                       else COSTS.export_per_segment_lite)
        n_records = len(delta.posix) + len(delta.stdio)
        export_cost = (COSTS.per_session + per_record * n_records
                       + per_segment * delta.segment_count)

        # Only an exported profile is read as timelines; otherwise the
        # window delta builds its segments only if an analysis reads them.
        if options.darshan.enable_dxt and self.logdir is not None:
            posix_plane = build_plane("POSIX", delta.dxt_posix,
                                      middleman.resolve_name)
            posix_plane.stats["summary"] = profile.summary()
            posix_plane.stats["read_bandwidth_mbps"] = (
                profile.posix_read_bandwidth / 1e6)
            space.planes[posix_plane.name] = posix_plane
            if delta.dxt_stdio:
                stdio_plane = build_plane("STDIO", delta.dxt_stdio,
                                          middleman.resolve_name)
                space.planes[stdio_plane.name] = stdio_plane

        if export_cost > 0:
            yield middleman.env.timeout(export_cost)
