"""File-descriptor table of the simulated process."""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Dict

from repro.posix.errors import SimOSError
from repro.posix.vfs import Inode

#: Flag bits mirroring the small subset of fcntl.h the reproduction needs.
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


@dataclass
class OpenFileDescription:
    """State shared by a file descriptor: inode, offset and open flags."""

    fd: int
    inode: Inode
    flags: int = O_RDONLY
    offset: int = 0

    @property
    def readable(self) -> bool:
        accmode = self.flags & 0o3
        return accmode in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        accmode = self.flags & 0o3
        return accmode in (O_WRONLY, O_RDWR)

    @property
    def append(self) -> bool:
        return bool(self.flags & O_APPEND)


class FileDescriptorTable:
    """Allocates descriptors and resolves them back to open files."""

    #: First descriptor handed out (0-2 are reserved for std streams).
    FIRST_FD = 3
    #: Open descriptors allowed at once (``RLIMIT_NOFILE``).
    MAX_OPEN_FILES = 65536

    def __init__(self):
        self._table: Dict[int, OpenFileDescription] = {}
        self._next_fd = self.FIRST_FD

    def allocate(self, inode: Inode, flags: int) -> OpenFileDescription:
        """Create a new open-file description for ``inode``."""
        if len(self._table) >= self.MAX_OPEN_FILES:
            raise SimOSError(errno.EMFILE, "too many open files", inode.path)
        fd = self._next_fd
        self._next_fd += 1
        ofd = OpenFileDescription(fd=fd, inode=inode, flags=flags)
        self._table[fd] = ofd
        return ofd

    def get(self, fd: int) -> OpenFileDescription:
        """Resolve a descriptor, raising EBADF for unknown/closed ones."""
        ofd = self._table.get(fd)
        if ofd is None:
            raise SimOSError(errno.EBADF, "bad file descriptor", str(fd))
        return ofd

    def close(self, fd: int) -> OpenFileDescription:
        """Close a descriptor and return its description."""
        ofd = self.get(fd)
        del self._table[fd]
        return ofd
