"""Block-device models.

Two device archetypes cover everything the paper's platforms use:

:class:`StreamingDevice`
    Flash-like devices (SATA SSD, Intel Optane 900p, DRAM, Lustre OSTs): a
    fixed per-request latency plus a fluid, fairly shared bandwidth pool.
    Concurrency helps until the aggregate bandwidth is saturated.

:class:`RotationalDevice`
    Hard disks: a single head services one request at a time.  A request
    pays a seek penalty unless it continues the previous request on the same
    file, then streams at the platter rate.  Concurrent streams therefore
    interleave and *reduce* aggregate throughput — the effect behind the
    malware case study's 16-thread slowdown (Fig. 11a).

A read or write returns the simulation generator of the transfer, for the
caller to ``yield from``; the generator returns nothing.  The device records
each transfer once, as one :class:`~repro.storage.metrics.TransferInterval`
in its :attr:`StorageDevice.metrics` (a seek shows as extra duration there).
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.sim import Environment, Resource, SharedBandwidth
from repro.storage.metrics import DeviceMetrics


class StorageDevice:
    """Common interface of all device models."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.metrics = DeviceMetrics(name)

    # Subclasses return the simulation generator of the transfer.
    def read(self, nbytes: int, stream_id: object = None, offset: int = 0
             ) -> Generator:
        raise NotImplementedError

    def write(self, nbytes: int, stream_id: object = None, offset: int = 0
              ) -> Generator:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class StreamingDevice(StorageDevice):
    """Latency + shared-bandwidth device (SSD / NVMe / DRAM / OST).

    Parameters
    ----------
    read_bandwidth, write_bandwidth:
        Aggregate bandwidth in bytes/second.
    latency:
        Fixed per-request service latency in seconds (submission, flash
        translation, network round-trip for an OST, ...).
    per_stream_bandwidth:
        Optional cap on the bandwidth a single request stream can extract
        (e.g. a single-threaded SATA stream cannot saturate an Optane card).
    queue_depth:
        Number of requests that may be in their latency phase concurrently;
        further requests queue.  Large for NVMe, small for SATA.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        read_bandwidth: float,
        write_bandwidth: Optional[float] = None,
        latency: float = 100e-6,
        per_stream_bandwidth: Optional[float] = None,
        queue_depth: int = 32,
    ):
        super().__init__(env, name)
        if read_bandwidth <= 0:
            raise ValueError("read_bandwidth must be positive")
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth if write_bandwidth else read_bandwidth)
        self.latency = float(latency)
        self._read_link = SharedBandwidth(
            env, rate=self.read_bandwidth,
            per_flow_rate=per_stream_bandwidth, name=f"{name}.read")
        self._write_link = SharedBandwidth(
            env, rate=self.write_bandwidth,
            per_flow_rate=per_stream_bandwidth, name=f"{name}.write")
        self._queue = Resource(env, capacity=max(1, int(queue_depth)))

    def _io(self, nbytes: int, link: SharedBandwidth, is_write: bool
            ) -> Generator:
        start = self.env.now
        slot = self._queue.request()
        yield slot
        try:
            if self.latency > 0:
                yield self.env.timeout(self.latency)
        finally:
            self._queue.release(slot)
        if nbytes > 0:
            yield link.transfer(float(nbytes))
        self.metrics.record_transfer(start, self.env.now, nbytes,
                                     is_write=is_write)

    def read(self, nbytes: int, stream_id: object = None, offset: int = 0
             ) -> Generator:
        """Read ``nbytes``."""
        return self._io(int(nbytes), self._read_link, False)

    def write(self, nbytes: int, stream_id: object = None, offset: int = 0
              ) -> Generator:
        """Write ``nbytes``."""
        return self._io(int(nbytes), self._write_link, True)


class RotationalDevice(StorageDevice):
    """Single-actuator hard-disk model.

    The head is a :class:`~repro.sim.resources.Resource` of capacity one: all
    requests serialize.  A request that continues the previous request
    (same ``stream_id`` and the offset immediately following the previous
    end) streams at ``bandwidth`` after a small track-to-track settle time;
    any other request first pays ``seek_time``.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth: float = 160e6,
        write_bandwidth: Optional[float] = None,
        seek_time: float = 8.0e-3,
        settle_time: float = 0.25e-3,
    ):
        super().__init__(env, name)
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = float(bandwidth)
        self.write_bandwidth = float(write_bandwidth if write_bandwidth else bandwidth)
        self.seek_time = float(seek_time)
        self.settle_time = float(settle_time)
        self._head = Resource(env, capacity=1)
        #: (stream_id, next_expected_offset) of the request served last.
        self._head_position: Optional[Tuple[object, int]] = None

    def _needs_seek(self, stream_id: object, offset: int) -> bool:
        if self._head_position is None:
            return True
        last_stream, next_offset = self._head_position
        return not (stream_id is not None and last_stream == stream_id
                    and offset == next_offset)

    def _io(self, nbytes: int, stream_id: object, offset: int, is_write: bool
            ) -> Generator:
        nbytes = int(nbytes)
        start = self.env.now
        grant = self._head.request()
        yield grant
        try:
            seeked = self._needs_seek(stream_id, offset)
            service = self.seek_time if seeked else self.settle_time
            rate = self.write_bandwidth if is_write else self.bandwidth
            if nbytes > 0:
                service += nbytes / rate
            if service > 0:
                yield self.env.timeout(service)
            self._head_position = (stream_id, offset + nbytes)
        finally:
            self._head.release(grant)
        self.metrics.record_transfer(start, self.env.now, nbytes,
                                     is_write=is_write)

    def read(self, nbytes: int, stream_id: object = None, offset: int = 0
             ) -> Generator:
        """Read ``nbytes`` at ``offset`` of stream ``stream_id``."""
        return self._io(nbytes, stream_id, offset, False)

    def write(self, nbytes: int, stream_id: object = None, offset: int = 0
              ) -> Generator:
        """Write ``nbytes`` at ``offset`` of stream ``stream_id``."""
        return self._io(nbytes, stream_id, offset, True)
