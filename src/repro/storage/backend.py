"""Filesystem backends: the layer between POSIX files and block devices.

A backend turns file-level operations (open, read at an offset, write,
stat) into device-level operations, adding the metadata costs of the
filesystem it models.  The POSIX virtual filesystem asks the
:class:`~repro.storage.tiering.MountTable` which backend holds a file and
delegates data movement here.  Every operation returns a simulation
generator, for the caller to ``yield from``, and the generator returns
nothing: its cost is the simulated time it takes, and the data it moves is
recorded by the devices below.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Set

from repro.sim import Environment
from repro.storage.device import StorageDevice


class StorageBackend:
    """Abstract filesystem backend."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name

    # -- interface -------------------------------------------------------
    @property
    def devices(self) -> List[StorageDevice]:
        """Block devices this backend writes to (for dstat)."""
        raise NotImplementedError

    def open(self, file_key: object) -> Generator:
        """Metadata cost of opening an existing file."""
        raise NotImplementedError

    def create(self, file_key: object) -> Generator:
        """Metadata cost of creating a new file."""
        raise NotImplementedError

    def close(self, file_key: object) -> Generator:
        """Cost of closing a file (usually negligible)."""
        yield self.env.timeout(0.0)

    def stat(self, file_key: object) -> Generator:
        """Metadata cost of a stat() on the file."""
        raise NotImplementedError

    def read(self, file_key: object, offset: int, nbytes: int) -> Generator:
        """Move ``nbytes`` of file data from the device."""
        raise NotImplementedError

    def write(self, file_key: object, offset: int, nbytes: int) -> Generator:
        """Move ``nbytes`` of file data to the device."""
        raise NotImplementedError

    def drop_caches(self) -> None:
        """Forget any cached metadata (the `echo 3 > drop_caches` step)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class LocalFilesystem(StorageBackend):
    """An ext4-like local filesystem on a single block device.

    Metadata behaviour: the first open (or stat) of a file after caches were
    dropped reads the file's directory entry and inode from disk (one small
    random read); subsequent opens hit the dentry/inode cache and cost only
    a few microseconds of kernel time.  This is what makes small-file
    workloads on the paper's HDD so expensive: every fresh file costs a
    metadata seek *and* a data seek.
    """

    #: Size of the on-disk metadata read that a cold open performs.
    METADATA_READ_BYTES = 4096
    #: Kernel time of a metadata lookup served from the dentry cache.
    CACHED_METADATA_TIME = 15e-6
    #: Kernel time of creating a file.
    CREATE_TIME = 60e-6

    def __init__(
        self,
        env: Environment,
        device: StorageDevice,
        name: Optional[str] = None,
    ):
        super().__init__(env, name or f"ext4({device.name})")
        self.device = device
        self._dentry_cache: Set[object] = set()

    @property
    def devices(self) -> List[StorageDevice]:
        return [self.device]

    # -- metadata ---------------------------------------------------------
    def _metadata_lookup(self, file_key: object) -> Generator:
        if file_key in self._dentry_cache:
            yield self.env.timeout(self.CACHED_METADATA_TIME)
        else:
            yield from self.device.read(
                self.METADATA_READ_BYTES, stream_id=("meta", self.name), offset=0)
            self._dentry_cache.add(file_key)
        self.device.metrics.record_metadata_op()

    def open(self, file_key: object) -> Generator:
        return self._metadata_lookup(file_key)

    def stat(self, file_key: object) -> Generator:
        return self._metadata_lookup(file_key)

    def create(self, file_key: object) -> Generator:
        yield self.env.timeout(self.CREATE_TIME)
        self._dentry_cache.add(file_key)
        self.device.metrics.record_metadata_op()

    # -- data -------------------------------------------------------------
    def read(self, file_key: object, offset: int, nbytes: int) -> Generator:
        if nbytes > 0:
            yield from self.device.read(nbytes, stream_id=file_key, offset=offset)

    def write(self, file_key: object, offset: int, nbytes: int) -> Generator:
        if nbytes > 0:
            yield from self.device.write(nbytes, stream_id=file_key, offset=offset)

    def drop_caches(self) -> None:
        self._dentry_cache.clear()
