"""Optimization advisors driven by tf-Darshan profiles.

The paper's case studies use the collected I/O profile to decide two
optimizations by hand: increasing ``num_parallel_calls`` for the small-file
ImageNet workload (8x bandwidth) and staging every file smaller than 2 MB
onto the Optane tier for the malware workload (+19 % bandwidth from staging
only 8 % of the bytes).  The advisors encode that reasoning so it can be
applied programmatically — the "automated decision making and auto-tuning"
the discussion section points to as future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.analysis import IOProfile

MIB = 1 << 20


@dataclass
class StagingRecommendation:
    """Which files to move to the fast tier and what that buys."""

    threshold_bytes: int
    files: List[str]
    staged_bytes: int
    total_bytes: int
    total_files: int

    @property
    def file_count(self) -> int:
        return len(self.files)

    @property
    def byte_fraction(self) -> float:
        return self.staged_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def file_fraction(self) -> float:
        return self.file_count / self.total_files if self.total_files else 0.0

    def summary(self) -> str:
        return (f"stage {self.file_count} files (< {self.threshold_bytes / MIB:.1f} MiB) "
                f"= {self.staged_bytes / (1 << 30):.2f} GiB, "
                f"{self.byte_fraction * 100:.1f} % of bytes, "
                f"{self.file_fraction * 100:.1f} % of files")


class StagingAdvisor:
    """Selects small files for staging onto a fast storage tier.

    The selection criterion follows the paper: files small enough to be read
    in a single POSIX read (below the read-buffer size / a user threshold)
    dominate the per-file overhead on a rotational device while contributing
    little to the total volume, so they give the best bandwidth return per
    staged byte.
    """

    def __init__(self, fast_tier_capacity: Optional[int] = None):
        self.fast_tier_capacity = fast_tier_capacity

    def recommend(self, file_sizes: Dict[str, int],
                  threshold_bytes: int = 2 * MIB) -> StagingRecommendation:
        """Recommend staging every file smaller than ``threshold_bytes``."""
        total_bytes = sum(file_sizes.values())
        candidates = sorted(
            (path for path, size in file_sizes.items() if size < threshold_bytes),
            key=lambda p: file_sizes[p])
        staged: List[str] = []
        staged_bytes = 0
        for path in candidates:
            size = file_sizes[path]
            if (self.fast_tier_capacity is not None
                    and staged_bytes + size > self.fast_tier_capacity):
                break
            staged.append(path)
            staged_bytes += size
        return StagingRecommendation(
            threshold_bytes=threshold_bytes,
            files=staged,
            staged_bytes=staged_bytes,
            total_bytes=total_bytes,
            total_files=len(file_sizes),
        )

    def recommend_from_profile(self, profile: IOProfile,
                               threshold_bytes: int = 2 * MIB
                               ) -> StagingRecommendation:
        """Recommendation based on the sizes tf-Darshan observed."""
        return self.recommend(profile.file_sizes(), threshold_bytes)

    def sweep(self, file_sizes: Dict[str, int],
              thresholds: Sequence[int]) -> List[StagingRecommendation]:
        """Evaluate several thresholds (used by the ablation benchmark)."""
        return [self.recommend(file_sizes, t) for t in thresholds]


@dataclass
class ThreadingRecommendation:
    """Suggested ``num_parallel_calls`` with the reasoning behind it."""

    recommended_threads: int
    current_threads: int
    reason: str

    @property
    def change(self) -> str:
        if self.recommended_threads > self.current_threads:
            return "increase"
        if self.recommended_threads < self.current_threads:
            return "decrease"
        return "keep"


class ThreadingAdvisor:
    """Recommends input-pipeline parallelism from the observed I/O profile.

    Heuristic distilled from the two case studies: latency-bound small-file
    workloads (low bandwidth, low sequential fraction, small median access)
    benefit from more parallel pipelines, while streaming large-file
    workloads on a rotational device lose aggregate bandwidth to seek
    thrashing when parallelism increases.
    """

    #: Access-size buckets considered "small" (metadata/latency bound).
    SMALL_BUCKETS = ("0_100", "100_1K", "1K_10K", "10K_100K")

    def __init__(self, max_threads: int = 32):
        self.max_threads = max_threads

    def recommend(self, profile: IOProfile, current_threads: int,
                  rotational_storage: bool = False) -> ThreadingRecommendation:
        non_zero_reads = max(1, profile.posix_reads - profile.zero_byte_reads)
        small_reads = sum(profile.read_size_histogram.get(b, 0)
                          for b in self.SMALL_BUCKETS)
        small_reads -= profile.zero_byte_reads
        small_fraction = max(0.0, small_reads) / non_zero_reads
        sequential = profile.access_pattern.sequential_fraction

        latency_bound = (small_fraction > 0.5
                         and (profile.posix_read_bandwidth < 50e6
                              or current_threads <= 2))
        if latency_bound:
            threads = min(self.max_threads, max(current_threads * 8, 8))
            reason = ("small reads dominate: each sample costs a metadata "
                      "round trip, the pipeline is latency bound, add "
                      "parallel calls")
            return ThreadingRecommendation(threads, current_threads, reason)
        if rotational_storage and sequential > 0.5 and small_fraction < 0.5:
            reason = ("large sequential reads on a rotational device: "
                      "parallel streams would cause seek thrashing")
            return ThreadingRecommendation(min(current_threads, 1) or 1,
                                           current_threads, reason)
        reason = "access pattern does not indicate a clear win from re-threading"
        return ThreadingRecommendation(current_threads, current_threads, reason)
