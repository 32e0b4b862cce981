"""A Lustre-like parallel filesystem backend.

The model captures the two properties of Lustre that drive the paper's
ImageNet case study (Section V-A):

* every open is a round trip to a metadata server (MDS) whose service is
  serialized, so small-file workloads are metadata-latency bound and scale
  with the number of concurrent input-pipeline threads only until the MDS
  saturates (the observed ~8x, not 28x, improvement);
* file data lives on object storage targets (OSTs); a file is striped over
  ``stripe_count`` OSTs in ``stripe_size`` chunks and each chunk read is a
  network round trip plus a share of the OST's bandwidth.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.sim import Environment, Resource, SharedBandwidth
from repro.storage.backend import StorageBackend
from repro.storage.device import StorageDevice, StreamingDevice


def default_ost(env: Environment, index: int) -> StreamingDevice:
    """A reasonable OST model: ~2 GB/s aggregate, ~1.2 GB/s per stream."""
    return StreamingDevice(
        env,
        name=f"ost{index}",
        read_bandwidth=2.0e9,
        write_bandwidth=1.5e9,
        latency=0.6e-3,
        per_stream_bandwidth=1.2e9,
        queue_depth=64,
    )


class LustreFilesystem(StorageBackend):
    """Parallel filesystem with one MDS and several OSTs.

    Parameters
    ----------
    mds_latency:
        Service time of one metadata request (open/create/stat) in seconds.
    mds_concurrency:
        Number of metadata requests serviced concurrently.  Production MDS
        hardware pipelines requests, but a single client node's metadata RPC
        stream is effectively serialized, which is what a single TensorFlow
        process observes.
    stripe_size / stripe_count:
        Lustre striping configuration.  Small ML samples are typically
        stored with ``stripe_count=1``.
    network_bandwidth:
        Client interconnect bandwidth (EDR InfiniBand on Kebnekaise) shared
        by all OST traffic of this client.
    """

    #: Time of a metadata request the client's cache serves (no MDS RPC).
    CACHED_METADATA_TIME = 30e-6

    def __init__(
        self,
        env: Environment,
        osts: Optional[Sequence[StorageDevice]] = None,
        n_osts: int = 8,
        name: str = "lustre",
        mds_latency: float = 3.2e-3,
        mds_concurrency: int = 1,
        stripe_size: int = 1 << 20,
        stripe_count: int = 1,
        network_bandwidth: float = 12.0e9,
    ):
        super().__init__(env, name)
        if osts is None:
            osts = [default_ost(env, i) for i in range(n_osts)]
        if not osts:
            raise ValueError("at least one OST is required")
        self.osts: List[StorageDevice] = list(osts)
        self.mds_latency = mds_latency
        self.stripe_size = int(stripe_size)
        self.stripe_count = max(1, min(int(stripe_count), len(self.osts)))
        self._mds = Resource(env, capacity=max(1, int(mds_concurrency)))
        self._network = SharedBandwidth(env, rate=network_bandwidth,
                                        name=f"{name}.lnet")
        self._client_metadata_cache: set = set()
        self.mds_requests = 0

    @property
    def devices(self) -> List[StorageDevice]:
        return list(self.osts)

    # -- layout ------------------------------------------------------------
    def _first_ost_index(self, file_key: object) -> int:
        return hash(file_key) % len(self.osts)

    def ost_for_offset(self, file_key: object, offset: int) -> StorageDevice:
        """OST holding the stripe that contains ``offset`` of the file."""
        stripe_index = offset // self.stripe_size
        ost_index = (self._first_ost_index(file_key)
                     + (stripe_index % self.stripe_count)) % len(self.osts)
        return self.osts[ost_index]

    # -- metadata -----------------------------------------------------------
    def _mds_request(self, file_key: object) -> Generator:
        if file_key in self._client_metadata_cache:
            yield self.env.timeout(self.CACHED_METADATA_TIME)
        else:
            self.mds_requests += 1
            grant = self._mds.request()
            yield grant
            try:
                yield self.env.timeout(self.mds_latency)
            finally:
                self._mds.release(grant)
            self._client_metadata_cache.add(file_key)

    def open(self, file_key: object) -> Generator:
        return self._mds_request(file_key)

    def stat(self, file_key: object) -> Generator:
        return self._mds_request(file_key)

    def create(self, file_key: object) -> Generator:
        # Creation allocates the layout on the MDS; never cached beforehand.
        self._client_metadata_cache.discard(file_key)
        return self._mds_request(file_key)

    # -- data ---------------------------------------------------------------
    def _split_into_stripes(self, offset: int, nbytes: int):
        """Yield ``(stripe_offset, chunk_bytes)`` pieces of a request."""
        remaining = nbytes
        position = offset
        while remaining > 0:
            stripe_end = (position // self.stripe_size + 1) * self.stripe_size
            chunk = min(remaining, stripe_end - position)
            yield position, chunk
            position += chunk
            remaining -= chunk

    def _transfer(self, file_key: object, offset: int, nbytes: int,
                  is_write: bool) -> Generator:
        for position, chunk in self._split_into_stripes(offset, nbytes):
            ost = self.ost_for_offset(file_key, position)
            network_done = self._network.transfer(float(chunk))
            if is_write:
                yield from ost.write(chunk, stream_id=file_key, offset=position)
            else:
                yield from ost.read(chunk, stream_id=file_key, offset=position)
            yield network_done

    def read(self, file_key: object, offset: int, nbytes: int) -> Generator:
        return self._transfer(file_key, offset, nbytes, False)

    def write(self, file_key: object, offset: int, nbytes: int) -> Generator:
        return self._transfer(file_key, offset, nbytes, True)

    def drop_caches(self) -> None:
        self._client_metadata_cache.clear()
