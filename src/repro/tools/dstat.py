"""A dstat-like background disk-activity monitor.

The paper validates tf-Darshan's bandwidth numbers against ``dstat`` run
concurrently in the background (Fig. 3, Fig. 4) and uses it again to compare
the disk activity of the three malware-training configurations (Fig. 12).
:class:`DstatMonitor` plays that role: it observes the *devices* below the
mount table — i.e. a measurement completely independent of the Darshan
instrumentation — and reports per-second transfer rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim import Environment
from repro.storage import StorageDevice
from repro.storage.metrics import merge_timelines


@dataclass
class DstatSeries:
    """Per-second transfer rates over the monitored window."""

    times: np.ndarray
    read_rates: np.ndarray
    write_rates: np.ndarray
    #: Width of one bin in seconds (the monitor's sampling interval).
    interval: float = 1.0

    @property
    def total_read_bytes(self) -> float:
        return float(self.read_rates.sum() * self.interval)

    @property
    def peak_read_rate(self) -> float:
        return float(self.read_rates.max()) if len(self.read_rates) else 0.0

    def mean_read_rate(self, ignore_idle: bool = False) -> float:
        if not len(self.read_rates):
            return 0.0
        rates = self.read_rates
        if ignore_idle:
            rates = rates[rates > 0]
            if not len(rates):
                return 0.0
        return float(rates.mean())


class DstatMonitor:
    """Samples device counters once per (simulated) second.

    The monitor is deliberately implemented on top of the device transfer
    logs rather than the Darshan records, so the validation experiments
    compare two genuinely independent observations (tool under test vs.
    system monitor), like the paper does.
    """

    def __init__(self, env: Environment, devices: Sequence[StorageDevice],
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.devices = list(devices)
        self.interval = float(interval)
        self.start_time: Optional[float] = None
        self.stop_time: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Begin monitoring (records the window start)."""
        self.start_time = self.env.now

    def stop(self) -> None:
        """Stop monitoring (records the window end)."""
        self.stop_time = self.env.now

    @property
    def window(self) -> tuple:
        start = self.start_time if self.start_time is not None else 0.0
        end = self.stop_time if self.stop_time is not None else self.env.now
        return start, end

    # -- series --------------------------------------------------------------
    def series(self, per_device: bool = False):
        """Per-second rates over the monitored window.

        Returns a :class:`DstatSeries`, or a dict of them per device when
        ``per_device`` is true.
        """
        start, end = self.window
        if per_device:
            return {device.name: self._device_series(device, start, end)
                    for device in self.devices}
        read_lines = []
        write_lines = []
        for device in self.devices:
            series = self._device_series(device, start, end)
            read_lines.append((series.times, series.read_rates))
            write_lines.append((series.times, series.write_rates))
        times, reads = merge_timelines(read_lines)
        _, writes = merge_timelines(write_lines)
        if not len(times):
            times = np.array([start])
            reads = np.zeros(1)
            writes = np.zeros(1)
        return DstatSeries(times=times, read_rates=reads, write_rates=writes,
                           interval=self.interval)

    def _device_series(self, device: StorageDevice, start: float, end: float
                       ) -> DstatSeries:
        times, reads = device.metrics.throughput_timeline(
            bin_seconds=self.interval, until=end, writes=False)
        _, writes = device.metrics.throughput_timeline(
            bin_seconds=self.interval, until=end, writes=True)
        if not len(times):
            return DstatSeries(times=np.array([]), read_rates=np.array([]),
                               write_rates=np.array([]),
                               interval=self.interval)
        mask = times >= (start - 1e-9)
        return DstatSeries(times=times[mask], read_rates=reads[mask],
                           write_rates=writes[mask], interval=self.interval)

    # -- text output ------------------------------------------------------------
    def render(self, max_rows: int = 20) -> str:
        """dstat-style text table of the monitored window."""
        series = self.series()
        lines = ["time(s)    read(MiB/s)   write(MiB/s)"]
        step = max(1, len(series.times) // max_rows)
        for i in range(0, len(series.times), step):
            lines.append(f"{series.times[i]:8.1f} {series.read_rates[i] / (1 << 20):12.2f} "
                         f"{series.write_rates[i] / (1 << 20):13.2f}")
        return "\n".join(lines)
