"""Virtual filesystem: the namespace the simulated process sees.

The VFS owns the path → inode mapping, the OS page cache and the mount
table that routes file data to storage backends.  Creating dataset files is
a metadata-only registration (the datasets "already exist on disk" when an
experiment starts), while all reads and writes issued through the syscall
layer cost simulated time on the backing devices.
"""

from __future__ import annotations

import errno
import posixpath
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional

from repro.storage import MountTable, PageCache, StorageBackend
from repro.posix.errors import SimOSError


def normalize_path(path: str) -> str:
    """Normalize an absolute POSIX path."""
    if not path or not path.startswith("/"):
        raise SimOSError(errno.EINVAL, "path must be absolute", path)
    norm = posixpath.normpath(path)
    return norm


@dataclass
class Inode:
    """One file or directory."""

    ino: int
    path: str
    is_dir: bool = False
    size: int = 0

    @property
    def key(self) -> int:
        """Stable identifier used for device locality and cache keys."""
        return self.ino


@dataclass
class StatResult:
    """Result of ``stat()`` / ``fstat()``: the fields its callers read."""

    st_size: int
    is_dir: bool = False


class VirtualFileSystem:
    """Path namespace, page cache and backend routing."""

    def __init__(
        self,
        mount_table: Optional[MountTable] = None,
        page_cache: Optional[PageCache] = None,
        enable_page_cache: bool = True,
    ):
        self.mount_table = mount_table if mount_table is not None else MountTable()
        self.page_cache = page_cache if page_cache is not None else PageCache()
        self.enable_page_cache = enable_page_cache
        self._inodes: Dict[str, Inode] = {}
        self._ino_counter = count(start=2)
        root = Inode(ino=1, path="/", is_dir=True)
        self._inodes["/"] = root

    # -- namespace management -------------------------------------------------
    def mount(self, mount_point: str, backend: StorageBackend) -> None:
        """Mount a storage backend and make sure the directory exists."""
        self.mount_table.mount(mount_point, backend)
        self._ensure_dirs(normalize_path(mount_point))

    def _ensure_dirs(self, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if current not in self._inodes:
                self._inodes[current] = Inode(
                    ino=next(self._ino_counter), path=current, is_dir=True)
            elif not self._inodes[current].is_dir:
                raise SimOSError(errno.ENOTDIR, "path component is a file", current)

    def mkdir(self, path: str) -> Inode:
        """Create a directory (and its parents)."""
        path = normalize_path(path)
        if path in self._inodes and not self._inodes[path].is_dir:
            raise SimOSError(errno.EEXIST, "file exists", path)
        self._ensure_dirs(path)
        return self._inodes[path]

    def create_file(self, path: str, size: int = 0) -> Inode:
        """Register a file in the namespace (no simulated time is charged).

        Use this to lay out synthetic datasets before an experiment.  Files
        created *during* a run (checkpoints, logs) should go through the
        syscall layer's ``open`` with ``O_CREAT`` instead so the metadata
        cost is accounted.
        """
        path = normalize_path(path)
        if path in self._inodes:
            raise SimOSError(errno.EEXIST, "file exists", path)
        # A directory's ancestors all exist, so only a missing or
        # non-directory parent needs the walk.
        directory = path.rpartition("/")[0] or "/"
        parent = self._inodes.get(directory)
        if parent is None or not parent.is_dir:
            self._ensure_dirs(directory)
        inode = Inode(ino=next(self._ino_counter), path=path, is_dir=False,
                      size=int(size))
        self._inodes[path] = inode
        return inode

    def remove(self, path: str) -> None:
        """Unlink a file from the namespace."""
        path = normalize_path(path)
        inode = self.lookup(path)
        if inode.is_dir:
            raise SimOSError(errno.EISDIR, "is a directory", path)
        del self._inodes[path]
        self.page_cache.invalidate(inode.key)
        self.mount_table.clear_placement(path)

    # -- lookup -----------------------------------------------------------------
    def exists(self, path: str) -> bool:
        try:
            return normalize_path(path) in self._inodes
        except SimOSError:
            return False

    def lookup(self, path: str) -> Inode:
        """Return the inode for ``path`` or raise ENOENT."""
        path = normalize_path(path)
        inode = self._inodes.get(path)
        if inode is None:
            raise SimOSError(errno.ENOENT, "no such file or directory", path)
        return inode

    def listdir(self, path: str) -> List[str]:
        """Names of entries directly below ``path``."""
        path = normalize_path(path)
        directory = self.lookup(path)
        if not directory.is_dir:
            raise SimOSError(errno.ENOTDIR, "not a directory", path)
        prefix = path if path.endswith("/") else path + "/"
        names = set()
        for other in self._inodes:
            if other == path or not other.startswith(prefix):
                continue
            remainder = other[len(prefix):]
            names.add(remainder.split("/", 1)[0])
        return sorted(names)

    def files_under(self, prefix: str) -> List[Inode]:
        """All regular files whose path starts with ``prefix``."""
        prefix = normalize_path(prefix)
        prefix_slash = prefix if prefix.endswith("/") else prefix + "/"
        out = []
        for path, inode in self._inodes.items():
            if inode.is_dir:
                continue
            if path == prefix or path.startswith(prefix_slash):
                out.append(inode)
        return sorted(out, key=lambda i: i.path)

    def total_bytes_under(self, prefix: str) -> int:
        """Total size of all files under a prefix."""
        return sum(inode.size for inode in self.files_under(prefix))

    # -- backends ---------------------------------------------------------------
    def backend_for(self, path: str) -> StorageBackend:
        """Storage backend currently holding the file at ``path``."""
        return self.mount_table.resolve(normalize_path(path))

    def set_placement(self, path: str, backend: StorageBackend) -> None:
        """Override which backend holds a file (staging)."""
        self.mount_table.set_placement(normalize_path(path), backend)

    def devices(self):
        """All devices below all mounted backends (for dstat)."""
        return self.mount_table.devices()

    # -- cache control ------------------------------------------------------------
    def drop_caches(self) -> None:
        """Drop the page cache and all backend metadata caches.

        The equivalent of ``sync; echo 3 > /proc/sys/vm/drop_caches`` which
        the paper runs before every Greendog experiment.
        """
        self.page_cache.drop()
        for backend in self.mount_table.backends():
            backend.drop_caches()
