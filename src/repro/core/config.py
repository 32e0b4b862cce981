"""Configuration of tf-Darshan."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.darshan.runtime import DarshanConfig
from repro.posix.dispatch import IO_SYMBOLS


@dataclass(frozen=True)
class TfDarshanCosts:
    """Simulated cost model of tf-Darshan's own work.

    The paper attributes most of tf-Darshan's 10-20 % overhead to the trace
    collection and in-situ analysis performed *after profiling stops* rather
    than to the per-operation instrumentation (Section IV-C, Fig. 5 and
    Fig. 12).  The cost model therefore has a small per-operation component
    (inherited from Darshan, see
    :class:`~repro.darshan.runtime.DarshanConfig`) and the following
    stop-time components.
    """

    #: One-off cost of the runtime attachment (dlopen + GOT scan and patch).
    attach: float = 6e-3
    #: Cost of restoring the patched symbols.
    detach: float = 1.5e-3
    #: Copying the live module buffers at profile start/stop, per record.
    snapshot_per_record: float = 20e-6
    #: In-situ statistics (bandwidth, histograms, access pattern), per record.
    analysis_per_record: float = 80e-6
    #: In-situ statistics per DXT segment in the profiling window.
    analysis_per_segment: float = 12e-6
    #: Full TensorBoard export (per-file panels + protobuf), per record.
    export_per_record_full: float = 0.75e-3
    #: Full TensorBoard export, per DXT segment (TraceViewer timelines).
    export_per_segment_full: float = 0.68e-3
    #: Lightweight in-situ reporting (no TensorBoard export), per record.
    export_per_record_lite: float = 0.55e-3
    #: Lightweight in-situ reporting, per DXT segment.
    export_per_segment_lite: float = 30e-6
    #: Fixed cost of wrapping up one profiling session.
    per_session: float = 40e-3


#: The one calibration tf-Darshan's own work charges.
COSTS = TfDarshanCosts()


@dataclass
class TfDarshanOptions:
    """User-facing options of the tf-Darshan tracer."""

    #: Symbols to interpose.  Defaults to every known I/O symbol.
    symbols: Sequence[str] = tuple(IO_SYMBOLS)
    #: Darshan runtime configuration used when attaching.  Its
    #: ``enable_dxt`` also switches the TraceViewer timelines built from
    #: the DXT segments.
    darshan: DarshanConfig = field(default_factory=DarshanConfig)
    #: Force full/lite export regardless of whether a logdir is set
    #: (None = decide from the profiler session's logdir).
    export_mode: Optional[str] = None

    def resolve_export_mode(self, logdir: Optional[str]) -> str:
        """'full' when exporting to TensorBoard, 'lite' for in-situ only."""
        if self.export_mode in ("full", "lite"):
            return self.export_mode
        return "full" if logdir else "lite"
