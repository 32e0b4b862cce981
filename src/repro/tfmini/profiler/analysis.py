"""Profile analyses: overview page and input-pipeline analyzer.

These are the TensorBoard Profile-plugin analyses the paper starts from: the
overview page's step-time breakdown ("96 % of the sampled step time is
waiting for input data") and the input-pipeline analysis.  tf-Darshan
*extends* the input-pipeline analysis with POSIX-level statistics — that
extension lives in :mod:`repro.core.tensorboard`; the TensorFlow-level part
lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class StepStats:
    """Timing of one training step, recorded by the Keras training loop."""

    step: int
    start: float
    end: float
    input_time: float
    compute_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def other_time(self) -> float:
        return max(0.0, self.duration - self.input_time - self.compute_time)


@dataclass
class InputPipelineAnalysis:
    """Step-time breakdown over a profiling window."""

    num_steps: int
    avg_step_time: float
    avg_input_time: float
    avg_compute_time: float
    avg_other_time: float
    input_percent: float
    classification: str
    per_step: List[StepStats] = field(default_factory=list)

    def summary(self) -> str:
        """Text rendering of the analysis (what the dashboard displays)."""
        lines = [
            "Input-pipeline analysis",
            "-----------------------",
            f"steps analysed        : {self.num_steps}",
            f"average step time     : {self.avg_step_time * 1e3:.1f} ms",
            f"  waiting for input   : {self.avg_input_time * 1e3:.1f} ms"
            f" ({self.input_percent:.1f} %)",
            f"  device compute      : {self.avg_compute_time * 1e3:.1f} ms",
            f"  other host work     : {self.avg_other_time * 1e3:.1f} ms",
            f"conclusion            : {self.classification}",
        ]
        return "\n".join(lines)


def classify_input_bound(input_percent: float) -> str:
    """TensorFlow Profiler's wording for how input-bound a program is."""
    if input_percent >= 50.0:
        return "Your program is HIGHLY input-bound"
    if input_percent >= 20.0:
        return "Your program is MODERATELY input-bound"
    if input_percent >= 5.0:
        return "Your program is slightly input-bound"
    return "Your program is NOT input-bound"


def analyze_input_pipeline(step_stats: List[StepStats],
                           window_start: Optional[float] = None,
                           window_end: Optional[float] = None
                           ) -> InputPipelineAnalysis:
    """Compute the step-time breakdown for steps inside the profile window."""
    selected = [
        s for s in step_stats
        if (window_start is None or s.end > window_start)
        and (window_end is None or s.start < window_end)
    ]
    if not selected:
        return InputPipelineAnalysis(
            num_steps=0, avg_step_time=0.0, avg_input_time=0.0,
            avg_compute_time=0.0, avg_other_time=0.0, input_percent=0.0,
            classification="no steps profiled", per_step=[])
    durations = np.array([s.duration for s in selected])
    inputs = np.array([s.input_time for s in selected])
    computes = np.array([s.compute_time for s in selected])
    others = np.array([s.other_time for s in selected])
    avg_step = float(durations.mean())
    input_percent = float(100.0 * inputs.sum() / max(durations.sum(), 1e-12))
    return InputPipelineAnalysis(
        num_steps=len(selected),
        avg_step_time=avg_step,
        avg_input_time=float(inputs.mean()),
        avg_compute_time=float(computes.mean()),
        avg_other_time=float(others.mean()),
        input_percent=input_percent,
        classification=classify_input_bound(input_percent),
        per_step=list(selected),
    )


@dataclass
class OverviewPage:
    """The Profile plugin's overview page."""

    profile_duration: float
    num_steps: int
    avg_step_time: float
    input_percent: float
    device_utilization: Dict[str, float]
    host_event_count: int
    device_event_count: int
    top_host_ops: List[tuple] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            "Overview",
            "--------",
            f"profile duration      : {self.profile_duration:.3f} s",
            f"steps profiled        : {self.num_steps}",
            f"average step time     : {self.avg_step_time * 1e3:.1f} ms",
            f"input-bound fraction  : {self.input_percent:.1f} %",
        ]
        for device, util in sorted(self.device_utilization.items()):
            lines.append(f"utilization {device:<10}: {util * 100:.1f} %")
        if self.top_host_ops:
            lines.append("top host operations   :")
            for name, total in self.top_host_ops:
                lines.append(f"  {name:<30} {total * 1e3:10.1f} ms")
        return "\n".join(lines)


def build_overview(xspace, step_stats: List[StepStats]) -> OverviewPage:
    """Assemble the overview page from the collected XSpace and step stats."""
    from repro.tfmini.profiler.tracers import GPU_PLANE_PREFIX, HOST_PLANE_NAME

    analysis = analyze_input_pipeline(step_stats, xspace.start_time,
                                      xspace.end_time)
    host_plane = xspace.find_plane(HOST_PLANE_NAME)
    host_events = host_plane.event_count if host_plane else 0
    device_events = 0
    utilization: Dict[str, float] = {}
    for name, plane in xspace.planes.items():
        if name.startswith(GPU_PLANE_PREFIX):
            device_events += plane.event_count
            utilization[name] = float(plane.stats.get("device_utilization", 0.0))

    top_ops: Dict[str, float] = {}
    if host_plane:
        for line in host_plane.lines.values():
            for name, _, duration, _ in line.rows():
                top_ops[name] = top_ops.get(name, 0.0) + duration
    top_sorted = sorted(top_ops.items(), key=lambda kv: kv[1], reverse=True)[:5]

    return OverviewPage(
        profile_duration=xspace.end_time - xspace.start_time,
        num_steps=analysis.num_steps,
        avg_step_time=analysis.avg_step_time,
        input_percent=analysis.input_percent,
        device_utilization=utilization,
        host_event_count=host_events,
        device_event_count=device_events,
        top_host_ops=top_sorted,
    )
