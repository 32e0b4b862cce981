"""Simulated accelerator devices and their kernel activity log.

The paper's two platforms use two NVIDIA V100s (Kebnekaise) and one RTX 2060
SUPER (Greendog).  For the reproduction only the *ratio* between GPU compute
time and input-pipeline time matters (the TensorFlow Profiler classifies
both case studies as heavily input bound), so a GPU is a serial execution
resource with a per-kernel duration decided by the model cost functions, and
a kernel log that the CUPTI-like device tracer reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.sim import Environment, Resource


@dataclass(frozen=True)
class KernelEvent:
    """One executed GPU kernel (what CUPTI would report)."""

    name: str
    start: float
    end: float
    device: str
    correlation_id: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class GPUDevice:
    """A serial GPU execution queue with a kernel activity log."""

    def __init__(self, env: Environment, name: str = "GPU:0",
                 relative_speed: float = 1.0):
        if relative_speed <= 0:
            raise ValueError("relative_speed must be positive")
        self.env = env
        self.name = name
        self.relative_speed = float(relative_speed)
        self._queue = Resource(env, capacity=1)
        self.kernel_log: List[KernelEvent] = []
        self._correlation = 0

    def launch(self, kernel_name: str, duration: float) -> Generator:
        """Execute one kernel of ``duration`` seconds (at reference speed)."""
        scaled = max(0.0, duration) / self.relative_speed
        grant = self._queue.request()
        yield grant
        start = self.env.now
        try:
            if scaled > 0:
                yield self.env.timeout(scaled)
        finally:
            self._queue.release(grant)
        end = self.env.now
        self._correlation += 1
        self.kernel_log.append(KernelEvent(
            name=kernel_name, start=start, end=end, device=self.name,
            correlation_id=self._correlation))
        return self.kernel_log[-1]

    def kernels_between(self, t0: float, t1: float) -> List[KernelEvent]:
        """Kernels whose execution overlaps [t0, t1) — the CUPTI window."""
        return [k for k in self.kernel_log if k.end > t0 and k.start < t1]

    def utilization(self, t0: float, t1: float) -> float:
        """Fraction of [t0, t1) during which the device was executing."""
        window = max(1e-12, t1 - t0)
        busy = sum(min(k.end, t1) - max(k.start, t0)
                   for k in self.kernels_between(t0, t1))
        return min(1.0, busy / window)


def v100(env: Environment, index: int = 0) -> GPUDevice:
    """An NVIDIA V100 (Kebnekaise)."""
    return GPUDevice(env, name=f"GPU:{index}", relative_speed=1.0)


def rtx2060(env: Environment, index: int = 0) -> GPUDevice:
    """An NVIDIA RTX 2060 SUPER (Greendog)."""
    return GPUDevice(env, name=f"GPU:{index}", relative_speed=0.45)
