"""In-situ analysis of Darshan snapshot deltas.

This is the statistics layer tf-Darshan adds on top of raw counters: POSIX
bandwidth over the profiling window, operation counts, read-size and
file-size distributions, and the sequential/consecutive access pattern — the
quantities the paper's case studies read off the extended Input-Pipeline
Analysis page (Fig. 7a, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator

from repro.darshan.counters import SIZE_BUCKET_LABELS, size_bucket
from repro.core.config import COSTS
from repro.core.wrapper import RecordDelta, SnapshotDelta


@dataclass
class AccessPattern:
    """Classification of read accesses over the window."""

    total_reads: int = 0
    sequential: int = 0
    consecutive: int = 0

    @property
    def sequential_fraction(self) -> float:
        return self.sequential / self.total_reads if self.total_reads else 0.0

    @property
    def consecutive_fraction(self) -> float:
        return self.consecutive / self.total_reads if self.total_reads else 0.0

    @property
    def random_fraction(self) -> float:
        """Reads that were neither sequential nor consecutive."""
        if not self.total_reads:
            return 0.0
        return max(0.0, 1.0 - self.sequential_fraction)


@dataclass
class IOProfile:
    """Everything tf-Darshan derives from one profiling window."""

    window_start: float
    window_end: float
    posix_opens: int = 0
    posix_reads: int = 0
    posix_writes: int = 0
    posix_seeks: int = 0
    posix_stats: int = 0
    posix_bytes_read: int = 0
    posix_bytes_written: int = 0
    zero_byte_reads: int = 0
    read_size_histogram: Dict[str, int] = field(default_factory=dict)
    write_size_histogram: Dict[str, int] = field(default_factory=dict)
    file_size_histogram: Dict[str, int] = field(default_factory=dict)
    access_pattern: AccessPattern = field(default_factory=AccessPattern)
    read_time: float = 0.0
    write_time: float = 0.0
    meta_time: float = 0.0
    stdio_opens: int = 0
    stdio_reads: int = 0
    stdio_writes: int = 0
    stdio_bytes_read: int = 0
    stdio_bytes_written: int = 0
    #: Observed size of each file with activity in the window (highest
    #: byte touched plus one), by path; the window's per-file counters are
    #: in its :class:`~repro.core.wrapper.SnapshotDelta`.
    files: Dict[str, int] = field(default_factory=dict)

    # -- derived quantities ---------------------------------------------------
    @property
    def duration(self) -> float:
        return max(1e-12, self.window_end - self.window_start)

    @property
    def posix_read_bandwidth(self) -> float:
        """Bytes/second read over the wall-clock profiling window.

        This is the paper's bandwidth definition: total bytes transferred
        during the profiling session divided by the elapsed session time.
        """
        return self.posix_bytes_read / self.duration

    @property
    def posix_write_bandwidth(self) -> float:
        return self.posix_bytes_written / self.duration

    @property
    def total_files(self) -> int:
        return len(self.files)

    @property
    def reads_per_open(self) -> float:
        return self.posix_reads / self.posix_opens if self.posix_opens else 0.0

    def file_sizes(self) -> Dict[str, int]:
        """Observed per-file sizes (used by the staging advisor)."""
        return dict(self.files)

    def summary(self) -> str:
        """The text the tf-Darshan TensorBoard panel shows."""
        mib = 1 << 20
        lines = [
            "tf-Darshan POSIX summary",
            "------------------------",
            f"profiling window      : {self.duration:.2f} s",
            f"files touched         : {self.total_files}",
            f"POSIX opens           : {self.posix_opens}",
            f"POSIX reads           : {self.posix_reads}"
            f" (zero-length: {self.zero_byte_reads})",
            f"POSIX writes          : {self.posix_writes}",
            f"bytes read            : {self.posix_bytes_read / mib:.1f} MiB",
            f"bytes written         : {self.posix_bytes_written / mib:.1f} MiB",
            f"read bandwidth        : {self.posix_read_bandwidth / 1e6:.2f} MB/s",
            f"sequential reads      : {self.access_pattern.sequential_fraction * 100:.0f} %",
            f"consecutive reads     : {self.access_pattern.consecutive_fraction * 100:.0f} %",
            "read size histogram   :",
        ]
        for label in SIZE_BUCKET_LABELS:
            count = self.read_size_histogram.get(label, 0)
            if count:
                lines.append(f"  {label:<10} {count}")
        if self.stdio_writes or self.stdio_reads:
            lines += [
                f"STDIO writes          : {self.stdio_writes}",
                f"STDIO bytes written   : {self.stdio_bytes_written / mib:.1f} MiB",
            ]
        return "\n".join(lines)


def analyze(env, delta: SnapshotDelta) -> Generator:
    """Turn a :class:`SnapshotDelta` into an :class:`IOProfile`.

    The simulated cost scales with the records and DXT segments analysed.
    """
    profile = IOProfile(window_start=delta.window_start,
                        window_end=delta.window_end)
    for record in delta.posix:
        _accumulate_posix(profile, record)
    for record in delta.stdio:
        profile.stdio_opens += record.get("STDIO_OPENS")
        profile.stdio_reads += record.get("STDIO_READS")
        profile.stdio_writes += record.get("STDIO_WRITES")
        profile.stdio_bytes_read += record.get("STDIO_BYTES_READ")
        profile.stdio_bytes_written += record.get("STDIO_BYTES_WRITTEN")
    cost = (COSTS.analysis_per_record * (len(delta.posix) + len(delta.stdio))
            + COSTS.analysis_per_segment * delta.segment_count)
    if cost > 0:
        yield env.timeout(cost)
    return profile


def _accumulate_posix(profile: IOProfile, record: RecordDelta) -> None:
    reads = record.get("POSIX_READS")
    writes = record.get("POSIX_WRITES")
    opens = record.get("POSIX_OPENS")
    if not (reads or writes or opens or record.get("POSIX_STATS")):
        return
    profile.posix_opens += opens
    profile.posix_reads += reads
    profile.posix_writes += writes
    profile.posix_seeks += record.get("POSIX_SEEKS")
    profile.posix_stats += record.get("POSIX_STATS")
    profile.posix_bytes_read += record.get("POSIX_BYTES_READ")
    profile.posix_bytes_written += record.get("POSIX_BYTES_WRITTEN")
    profile.zero_byte_reads += max(0, record.get("POSIX_SIZE_READ_0_100"))
    fcounters = record.fcounters
    profile.read_time += fcounters.get("POSIX_F_READ_TIME", 0.0)
    profile.write_time += fcounters.get("POSIX_F_WRITE_TIME", 0.0)
    profile.meta_time += fcounters.get("POSIX_F_META_TIME", 0.0)

    for label in SIZE_BUCKET_LABELS:
        read_count = record.get(f"POSIX_SIZE_READ_{label}")
        if read_count:
            profile.read_size_histogram[label] = (
                profile.read_size_histogram.get(label, 0) + read_count)
        write_count = record.get(f"POSIX_SIZE_WRITE_{label}")
        if write_count:
            profile.write_size_histogram[label] = (
                profile.write_size_histogram.get(label, 0) + write_count)

    profile.access_pattern.total_reads += reads
    profile.access_pattern.sequential += record.get("POSIX_SEQ_READS")
    profile.access_pattern.consecutive += record.get("POSIX_CONSEC_READS")

    end_counters = record.end_counters
    observed_size = max(
        end_counters.get("POSIX_MAX_BYTE_READ", 0),
        end_counters.get("POSIX_MAX_BYTE_WRITTEN", 0)) + 1
    size_label = size_bucket(max(0, observed_size))
    profile.file_size_histogram[size_label] = (
        profile.file_size_histogram.get(size_label, 0) + 1)
    profile.files[record.path or f"record-{record.record_id:#x}"] = observed_size
