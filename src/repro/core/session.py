"""High-level tf-Darshan session API.

``enable(runtime)`` is all a user needs: it builds the process's one
tf-Darshan state, the :class:`~repro.core.wrapper.DarshanMiddleman` holding
the runtime attachment, keeps it as ``runtime.tf_darshan`` and registers
the DarshanTracer with the runtime's profiler registry, so every subsequent
profiling session — Keras TensorBoard callback, manual
``profiler_start``/``profiler_stop`` or the interactive server —
transparently includes fine-grained I/O profiling.
:class:`TfDarshanSession` additionally offers the manual start/stop pattern
used by the STREAM validation experiment (profile a window, read the
bandwidth, repeat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.tfmini.profiler.session import profiler_start, profiler_stop
from repro.core.analysis import IOProfile
from repro.core.attach import RuntimeAttachment
from repro.core.config import TfDarshanOptions
from repro.core.tensorboard import ProfilePluginData, build_plugin_data
from repro.core.tracer import DarshanTracer
from repro.core.wrapper import DarshanMiddleman


def enable(runtime, options: Optional[TfDarshanOptions] = None
           ) -> DarshanMiddleman:
    """Enable tf-Darshan on a runtime; returns the process's middleman.

    The first call builds the attachment from ``options`` (it attaches at
    the first profiling session) and registers the tracer factory.  Later
    calls return the same middleman and ignore ``options``: one Darshan
    per process.
    """
    if runtime.tf_darshan is None:
        middleman = DarshanMiddleman(
            RuntimeAttachment(runtime.env, runtime.os.symbols, options))
        runtime.profiler_registry.register(
            lambda _runtime, logdir: DarshanTracer(middleman, logdir))
        runtime.tf_darshan = middleman
    return runtime.tf_darshan


def last_profile(runtime) -> Optional[IOProfile]:
    """The I/O profile collected by the most recent profiling session."""
    state = runtime.tf_darshan
    return state.profile if state is not None else None


@dataclass
class WindowResult:
    """One manually profiled window (used by the STREAM validation)."""

    index: int
    start: float
    end: float
    io_profile: Optional[IOProfile]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def read_bandwidth(self) -> float:
        return self.io_profile.posix_read_bandwidth if self.io_profile else 0.0


class TfDarshanSession:
    """Manual profiling sessions on a tf-Darshan-enabled runtime."""

    def __init__(self, runtime, options: Optional[TfDarshanOptions] = None,
                 logdir: Optional[str] = None):
        self.runtime = runtime
        self.middleman = enable(runtime, options)
        self.logdir = logdir
        self.windows: List[WindowResult] = []

    # -- manual start / stop ----------------------------------------------------
    def start(self) -> Generator:
        """Start a profiling window (``tf.profiler.experimental.start``)."""
        yield from profiler_start(self.runtime, logdir=self.logdir)

    def stop(self) -> Generator:
        """Stop the window; returns the :class:`WindowResult`."""
        result = yield from profiler_stop(self.runtime)
        window = WindowResult(
            index=len(self.windows),
            start=result.start_time,
            end=result.end_time,
            io_profile=self.middleman.profile,
        )
        self.windows.append(window)
        return window

    # -- reporting ----------------------------------------------------------------
    def bandwidth_series(self) -> List[tuple]:
        """(window end time, read bandwidth) pairs — the red dots of Fig. 3/4."""
        return [(w.end, w.read_bandwidth) for w in self.windows]

    def plugin_data(self, window: Optional[WindowResult] = None,
                    title: str = "tf-Darshan profile") -> ProfilePluginData:
        """The extended Input-Pipeline Analysis content for one window."""
        target = window or (self.windows[-1] if self.windows else None)
        if target is None or target.io_profile is None:
            raise ValueError("no profiled window available")
        analysis = self.runtime.input_pipeline_analysis(target.start, target.end)
        return build_plugin_data(target.io_profile, analysis, title=title)
