"""TensorBoard Profile-plugin extension.

The paper modifies the TensorBoard Profile plugin so the Input-Pipeline
Analysis page additionally shows tf-Darshan's POSIX statistics (bandwidth,
operation counts, read-size and file-size distributions) and the TraceViewer
shows one timeline per file.  There is no web UI in this reproduction; the
same content is produced as structured dictionaries, JSON files in the log
directory and terminal-renderable text panels (used by the examples and the
benchmark reports).
"""

from __future__ import annotations

import json
import os as host_os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.darshan.counters import SIZE_BUCKET_LABELS
from repro.tfmini.profiler.analysis import InputPipelineAnalysis
from repro.core.analysis import IOProfile


def _ascii_bar(value: int, max_value: int, width: int = 30) -> str:
    if max_value <= 0:
        return ""
    filled = int(round(width * value / max_value))
    return "#" * filled


def render_histogram(histogram: Dict[str, int], title: str) -> str:
    """ASCII rendering of a Darshan-style size histogram."""
    lines = [title]
    max_value = max(histogram.values(), default=0)
    for label in SIZE_BUCKET_LABELS:
        count = histogram.get(label, 0)
        if count:
            lines.append(f"  {label:<10} {count:>10}  {_ascii_bar(count, max_value)}")
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


@dataclass
class ProfilePluginData:
    """Everything the extended Input-Pipeline Analysis page shows."""

    io_profile: IOProfile
    input_pipeline: Optional[InputPipelineAnalysis] = None
    title: str = "tf-Darshan profile"

    # -- structured view ---------------------------------------------------
    def to_dict(self) -> dict:
        profile = self.io_profile
        data = {
            "title": self.title,
            "window": {"start": profile.window_start, "end": profile.window_end,
                       "duration": profile.duration},
            "posix": {
                "opens": profile.posix_opens,
                "reads": profile.posix_reads,
                "writes": profile.posix_writes,
                "zero_byte_reads": profile.zero_byte_reads,
                "bytes_read": profile.posix_bytes_read,
                "bytes_written": profile.posix_bytes_written,
                "read_bandwidth_mbps": profile.posix_read_bandwidth / 1e6,
                "write_bandwidth_mbps": profile.posix_write_bandwidth / 1e6,
                "sequential_read_fraction": profile.access_pattern.sequential_fraction,
                "consecutive_read_fraction": profile.access_pattern.consecutive_fraction,
                "read_size_histogram": dict(profile.read_size_histogram),
                "write_size_histogram": dict(profile.write_size_histogram),
                "file_size_histogram": dict(profile.file_size_histogram),
                "files": profile.total_files,
            },
            "stdio": {
                "opens": profile.stdio_opens,
                "reads": profile.stdio_reads,
                "writes": profile.stdio_writes,
                "bytes_written": profile.stdio_bytes_written,
            },
        }
        if self.input_pipeline is not None:
            data["input_pipeline"] = {
                "num_steps": self.input_pipeline.num_steps,
                "avg_step_time": self.input_pipeline.avg_step_time,
                "input_percent": self.input_pipeline.input_percent,
                "classification": self.input_pipeline.classification,
            }
        return data

    # -- text view -------------------------------------------------------------
    def render(self) -> str:
        """Terminal rendering of the extended Input-Pipeline Analysis page."""
        parts: List[str] = [self.title, "=" * len(self.title)]
        if self.input_pipeline is not None:
            parts.append(self.input_pipeline.summary())
            parts.append("")
        parts.append(self.io_profile.summary())
        parts.append("")
        parts.append(render_histogram(self.io_profile.read_size_histogram,
                                      "POSIX read size distribution"))
        parts.append(render_histogram(self.io_profile.file_size_histogram,
                                      "File size distribution (observed)"))
        return "\n".join(parts)

    # -- export ------------------------------------------------------------------
    def write(self, logdir: str, filename: str = "darshan_io_analysis.json") -> str:
        """Write the structured panel data into the TensorBoard log dir."""
        host_os.makedirs(logdir, exist_ok=True)
        path = host_os.path.join(logdir, filename)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path


def build_plugin_data(io_profile: IOProfile,
                      input_pipeline: Optional[InputPipelineAnalysis] = None,
                      title: str = "tf-Darshan profile") -> ProfilePluginData:
    """Convenience constructor used by the session API and the benchmarks."""
    return ProfilePluginData(io_profile=io_profile,
                             input_pipeline=input_pipeline, title=title)
