"""High-level tf-Darshan session API.

``enable(runtime)`` is all a user needs: it registers the DarshanTracer with
the runtime's profiler registry so every subsequent profiling session —
Keras TensorBoard callback, manual ``profiler_start``/``profiler_stop`` or
the interactive server — transparently includes fine-grained I/O profiling.
:class:`TfDarshanSession` additionally offers the manual start/stop pattern
used by the STREAM validation experiment (profile a window, read the
bandwidth, repeat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.tfmini.profiler.session import (
    ProfilerOptions,
    profiler_start,
    profiler_stop,
)
from repro.core.analysis import IOProfile
from repro.core.config import TfDarshanOptions
from repro.core.tensorboard import ProfilePluginData, build_plugin_data
from repro.core.tracer import register_tf_darshan


def enable(runtime, options: Optional[TfDarshanOptions] = None):
    """Enable tf-Darshan on a runtime (idempotent); returns the options used."""
    if getattr(runtime, "_tf_darshan_enabled", False):
        return runtime._tf_darshan_options
    opts = options or TfDarshanOptions()
    register_tf_darshan(runtime, opts)
    runtime._tf_darshan_enabled = True
    return opts


def is_enabled(runtime) -> bool:
    """``True`` once :func:`enable` has been called on the runtime."""
    return bool(getattr(runtime, "_tf_darshan_enabled", False))


def last_profile(runtime) -> Optional[IOProfile]:
    """The I/O profile collected by the most recent profiling session."""
    return getattr(runtime, "last_io_profile", None)


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
                 logdir: Optional[str] = None,
                 profiler_options: Optional[ProfilerOptions] = None):
        self.runtime = runtime
        self.options = enable(runtime, options)
        self.logdir = logdir
        self.profiler_options = profiler_options
        self.windows: List[WindowResult] = []
        self._window_start: Optional[float] = None

    # -- manual start / stop ----------------------------------------------------
    def start(self) -> Generator:
        """Start a profiling window (``tf.profiler.experimental.start``)."""
        yield from profiler_start(self.runtime, logdir=self.logdir,
                                  options=self.profiler_options)
        self._window_start = self.runtime.env.now

    def stop(self) -> Generator:
        """Stop the window; returns the :class:`WindowResult`."""
        result = yield from profiler_stop(self.runtime)
        window = WindowResult(
            index=len(self.windows),
            start=result.start_time,
            end=result.end_time,
            io_profile=last_profile(self.runtime),
        )
        self.windows.append(window)
        self._window_start = None
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
