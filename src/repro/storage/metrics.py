"""Per-device transfer metrics.

Every storage device records the intervals during which it transferred data.
The :class:`repro.tools.dstat.DstatMonitor` samples these counters once per
simulated second — exactly the role `dstat` plays in the paper's validation
experiments (Fig. 3, 4 and 12) — and the benchmarks use them to compute
ground-truth bandwidth independently of what tf-Darshan reports.  The
transfers are kept as four typed-array columns, 25 bytes each.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TransferInterval:
    """One device transfer: ``nbytes`` moved between ``start`` and ``end``."""

    start: float
    end: float
    nbytes: int
    is_write: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class DeviceMetrics:
    """Accumulates transfer intervals and operation counters for one device."""

    def __init__(self, name: str):
        self.name = name
        # One column per TransferInterval field, one row per transfer.
        self._starts = array("d")
        self._ends = array("d")
        self._nbytes = array("q")
        self._writes = array("b")
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.metadata_ops = 0

    # -- recording -------------------------------------------------------
    def record_transfer(self, start: float, end: float, nbytes: int,
                        is_write: bool = False) -> None:
        """Record a transfer of ``nbytes`` over the interval [start, end]."""
        if end < start:
            raise ValueError("transfer interval must not end before it starts")
        nbytes = int(nbytes)
        self._starts.append(start)
        self._ends.append(end)
        self._nbytes.append(nbytes)
        self._writes.append(is_write)
        if is_write:
            self.bytes_written += nbytes
            self.write_ops += 1
        else:
            self.bytes_read += nbytes
            self.read_ops += 1

    def record_metadata_op(self) -> None:
        """Record a metadata-only operation (open/stat/...)."""
        self.metadata_ops += 1

    # -- queries -----------------------------------------------------------
    @property
    def intervals(self) -> List[TransferInterval]:
        """Every transfer so far, in the order recorded, as new objects on
        each access (a view for tests and reports, not for a loop)."""
        return [TransferInterval(start, end, nbytes, bool(write))
                for start, end, nbytes, write
                in zip(self._starts, self._ends, self._nbytes, self._writes)]

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def _transfers(self, writes: Optional[bool]):
        """``(start, end, nbytes)`` of the transfers in the direction
        ``writes`` selects (both if None), in the order recorded."""
        rows = zip(self._starts, self._ends, self._nbytes, self._writes)
        if writes is None:
            return ((start, end, nbytes) for start, end, nbytes, _ in rows)
        return ((start, end, nbytes) for start, end, nbytes, write in rows
                if write == writes)

    def bytes_between(self, t0: float, t1: float,
                      writes: Optional[bool] = None) -> float:
        """Bytes transferred during [t0, t1).

        A transfer is assumed to progress uniformly over its interval, so a
        partially overlapping transfer contributes proportionally.  ``writes``
        selects only writes (``True``), only reads (``False``) or both
        (``None``).
        """
        if t1 <= t0:
            return 0.0
        total = 0.0
        for start, end, nbytes in self._transfers(writes):
            duration = end - start
            lo = max(t0, start)
            hi = min(t1, end)
            if hi <= lo:
                # instantaneous transfer exactly at a bin edge
                if duration == 0.0 and t0 <= start < t1:
                    total += nbytes
                continue
            if duration == 0.0:
                total += nbytes
            else:
                total += nbytes * (hi - lo) / duration
        return total

    def throughput_timeline(self, bin_seconds: float = 1.0,
                            until: Optional[float] = None,
                            writes: Optional[bool] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(bin_start_times, bytes_per_second)`` arrays.

        This is the series a dstat-style monitor would plot (Fig. 3/4/12).
        """
        if not self._ends:
            return np.array([]), np.array([])
        t_end = until if until is not None else max(self._ends)
        n_bins = max(1, int(np.ceil(t_end / bin_seconds)))
        edges = np.arange(n_bins + 1) * bin_seconds
        bounds = edges.tolist()
        values = [0.0] * n_bins
        # One pass over the transfers, in the order recorded, visiting only
        # the bins each one can reach.  Every bin then adds the same terms in
        # the same order as bytes_between(bounds[i], bounds[i + 1]), so the
        # sums are bit-identical to it; a prefix sum would round differently.
        for start, end, nbytes in self._transfers(writes):
            duration = end - start
            first = max(0, bisect.bisect_right(bounds, start) - 1)
            stop = min(n_bins, max(first + 1, bisect.bisect_left(bounds, end)))
            for i in range(first, stop):
                t0, t1 = bounds[i], bounds[i + 1]
                lo = max(t0, start)
                hi = min(t1, end)
                if hi <= lo:
                    # instantaneous transfer exactly at a bin edge
                    if duration == 0.0 and t0 <= start < t1:
                        values[i] += nbytes
                elif duration == 0.0:
                    values[i] += nbytes
                else:
                    values[i] += nbytes * (hi - lo) / duration
        return edges[:-1], np.array(values) / bin_seconds


def merge_timelines(timelines: Iterable[Tuple[np.ndarray, np.ndarray]]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum several ``(times, rates)`` timelines onto a common time axis."""
    timelines = [t for t in timelines if len(t[0])]
    if not timelines:
        return np.array([]), np.array([])
    # All timelines produced with the same bin width start at 0; pad to the
    # longest one.
    longest = max(len(t[0]) for t in timelines)
    times = None
    total = np.zeros(longest)
    for t, v in timelines:
        if times is None or len(t) == longest:
            times = t if len(t) == longest else times
        total[: len(v)] += v
    if times is None:  # pragma: no cover - defensive
        times = np.arange(longest, dtype=float)
    return times, total
