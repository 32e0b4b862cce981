"""The TensorFlow-like runtime: one process tying everything together.

A :class:`TFRuntime` owns the simulated process's CPU pool, its GPUs, the
TraceMe recorder, the profiler registry and the handle to the simulated OS
(whose symbol table is the paper's patch target).  Workloads, datasets,
Keras models and the profiler all operate through a runtime instance.
"""

from __future__ import annotations

import json
import os as host_os
from typing import List, Optional

from repro.sim import CPUPool, Environment
from repro.posix import SimulatedOS
from repro.tfmini.device import GPUDevice
from repro.tfmini.profiler.analysis import StepStats, analyze_input_pipeline, build_overview
from repro.tfmini.profiler.session import ProfilerRegistry, ProfilerSession
from repro.tfmini.profiler.traceme import TraceMeRecorder
from repro.tfmini.profiler.xplane import XSpace, write_trace_json


class TFRuntime:
    """One TensorFlow process bound to a simulated OS and devices."""

    #: tf-Darshan's per-process state, the ``DarshanMiddleman`` that
    #: ``repro.core.enable`` sets once; None while tf-Darshan is off.
    tf_darshan = None

    def __init__(
        self,
        env: Environment,
        os_image: SimulatedOS,
        cpu_cores: int = 8,
        gpus: Optional[List[GPUDevice]] = None,
        read_buffer_size: int = 1 << 20,
        name: str = "tensorflow",
    ):
        self.env = env
        self.os = os_image
        self.name = name
        self.cpu = CPUPool(env, cpu_cores, name=f"{name}.cpu")
        self.cpu_cores = cpu_cores
        self.gpus: List[GPUDevice] = list(gpus or [])
        #: Chunk size of the POSIX filesystem plugin's read loop.
        self.read_buffer_size = int(read_buffer_size)
        self.traceme = TraceMeRecorder()
        self.profiler_registry = ProfilerRegistry()
        self.active_profiler_session: Optional[ProfilerSession] = None
        self.last_profile = None
        #: Step statistics appended by the Keras training loop.
        self.step_stats: List[StepStats] = []
        # Imported lazily to avoid a cycle at module import time.
        from repro.tfmini.filesystem import PosixFileSystem
        self.filesystem = PosixFileSystem(os_image, self.read_buffer_size)

    # -- profiling helpers -------------------------------------------------
    def record_step(self, stats: StepStats) -> None:
        """Called by the training loop after every step."""
        self.step_stats.append(stats)

    def input_pipeline_analysis(self, window_start: Optional[float] = None,
                                window_end: Optional[float] = None):
        """TensorFlow-level input-pipeline analysis over a time window."""
        return analyze_input_pipeline(self.step_stats, window_start, window_end)

    def export_profile(self, space: XSpace, logdir: str) -> List[str]:
        """Write trace.json.gz plus the analysis summaries to ``logdir``.

        This is host-side output (real files on the machine running the
        simulation), mirroring what the TensorBoard plugin reads.
        """
        host_os.makedirs(logdir, exist_ok=True)
        written: List[str] = []
        trace_path = host_os.path.join(logdir, "trace.json.gz")
        write_trace_json(space, trace_path)
        written.append(trace_path)

        analysis = analyze_input_pipeline(self.step_stats, space.start_time,
                                          space.end_time)
        overview = build_overview(space, self.step_stats)
        analysis_path = host_os.path.join(logdir, "input_pipeline.json")
        with open(analysis_path, "w") as handle:
            json.dump({
                "num_steps": analysis.num_steps,
                "avg_step_time": analysis.avg_step_time,
                "avg_input_time": analysis.avg_input_time,
                "avg_compute_time": analysis.avg_compute_time,
                "input_percent": analysis.input_percent,
                "classification": analysis.classification,
            }, handle, indent=2)
        written.append(analysis_path)
        overview_path = host_os.path.join(logdir, "overview_page.json")
        with open(overview_path, "w") as handle:
            json.dump({
                "profile_duration": overview.profile_duration,
                "num_steps": overview.num_steps,
                "avg_step_time": overview.avg_step_time,
                "input_percent": overview.input_percent,
                "device_utilization": overview.device_utilization,
                "host_event_count": overview.host_event_count,
                "device_event_count": overview.device_event_count,
            }, handle, indent=2)
        written.append(overview_path)
        return written

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TFRuntime {self.name!r} cores={self.cpu_cores} "
                f"gpus={len(self.gpus)}>")
