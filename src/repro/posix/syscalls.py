"""The POSIX syscall layer ("libc") of the simulated process.

Every function is a simulation generator: it charges the cost of the call
(syscall entry, page-cache lookups, device transfers through the storage
backend) to the simulated clock and returns the same result a real libc call
would.  Data moves as byte counts, not buffers: ``read`` and ``pread``
return the number of bytes read (0 at end of file) and ``write`` and
``pwrite`` take the number of bytes to write, the counts a real call
returns and takes.  The functions are registered in the
:class:`~repro.posix.dispatch.SymbolTable`, which is what makes them
interposable by Darshan exactly as in the paper.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Generator

from repro.sim import Environment, Timeout
from repro.posix.errors import SimOSError
from repro.posix.fdtable import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    FileDescriptorTable,
    OpenFileDescription,
)
from repro.posix.vfs import Inode, StatResult, VirtualFileSystem


@dataclass(frozen=True)
class PosixCosts:
    """Fixed CPU costs of syscall handling (seconds)."""

    #: Kernel entry/exit and VFS bookkeeping per syscall.
    syscall_overhead: float = 1.2e-6
    #: User/kernel copy bandwidth in bytes/second (memcpy of the payload).
    copy_bandwidth: float = 6.0e9
    #: Cost of serving one byte from the page cache (DRAM read), bytes/s.
    page_cache_bandwidth: float = 9.0e9


#: The one calibration every syscall charges.
COSTS = PosixCosts()


class PosixLayer:
    """Implementation of the POSIX file API over the VFS and storage stack."""

    def __init__(self, env: Environment, vfs: VirtualFileSystem):
        self.env = env
        self.vfs = vfs
        self.fds = FileDescriptorTable()
        #: Total syscalls served, by name (useful for sanity checks).
        self.call_counts: dict = {}

    # -- small helpers ---------------------------------------------------------
    def _charge(self, name: str, payload_bytes: int = 0) -> Timeout:
        """Count the call; returns the timeout of its cost, to ``yield``."""
        self.call_counts[name] = self.call_counts.get(name, 0) + 1
        cost = COSTS.syscall_overhead
        if payload_bytes > 0:
            cost += payload_bytes / COSTS.copy_bandwidth
        return self.env.timeout(cost)

    # -- open / close ------------------------------------------------------------
    def open(self, path: str, flags: int = O_RDONLY) -> Generator:
        """Open ``path``; returns a file descriptor (int)."""
        yield self._charge("open")
        created = False
        try:
            inode = self.vfs.lookup(path)
        except SimOSError:
            if not flags & O_CREAT:
                raise
            inode = self.vfs.create_file(path, size=0)
            created = True
        if inode.is_dir and (flags & 0o3) != O_RDONLY:
            raise SimOSError(errno.EISDIR, "cannot write a directory", path)
        backend = self.vfs.backend_for(inode.path)
        if created:
            yield from backend.create(inode.key)
        else:
            yield from backend.open(inode.key)
        if flags & O_TRUNC and not inode.is_dir:
            inode.size = 0
            self.vfs.page_cache.invalidate(inode.key)
        ofd = self.fds.allocate(inode, flags)
        if flags & O_APPEND:
            ofd.offset = inode.size
        return ofd.fd

    def close(self, fd: int) -> Generator:
        """Close a file descriptor."""
        yield self._charge("close")
        ofd = self.fds.close(fd)
        backend = self.vfs.backend_for(ofd.inode.path)
        yield from backend.close(ofd.inode.key)
        return 0

    # -- data movement --------------------------------------------------------------
    def _do_read(self, ofd: OpenFileDescription, count: int, offset: int
                 ) -> Generator:
        inode = ofd.inode
        if not ofd.readable:
            raise SimOSError(errno.EBADF, "descriptor not open for reading",
                             inode.path)
        nbytes = max(0, min(count, inode.size - offset))
        if nbytes == 0:
            # End of file: a zero-length read costs only the syscall itself.
            return 0
        cached = uncached = 0
        if self.vfs.enable_page_cache:
            cached, uncached = self.vfs.page_cache.split_request(
                inode.key, offset, nbytes)
        else:
            uncached = nbytes
        if cached > 0:
            yield self.env.timeout(cached / COSTS.page_cache_bandwidth)
        if uncached > 0:
            backend = self.vfs.backend_for(inode.path)
            yield from backend.read(inode.key, offset + cached, uncached)
            if self.vfs.enable_page_cache:
                self.vfs.page_cache.insert(inode.key, offset + cached, uncached)
        return nbytes

    def read(self, fd: int, count: int) -> Generator:
        """``read(2)``: read from the descriptor's current offset; returns
        the number of bytes read."""
        ofd = self.fds.get(fd)
        if count < 0:
            raise SimOSError(errno.EINVAL, "negative count", ofd.inode.path)
        yield self._charge("read", min(count, max(0, ofd.inode.size - ofd.offset)))
        nbytes = yield from self._do_read(ofd, count, ofd.offset)
        ofd.offset += nbytes
        return nbytes

    def pread(self, fd: int, count: int, offset: int) -> Generator:
        """``pread(2)``: positional read, does not move the file offset."""
        ofd = self.fds.get(fd)
        if count < 0 or offset < 0:
            raise SimOSError(errno.EINVAL, "negative count or offset",
                             ofd.inode.path)
        yield self._charge("pread", min(count, max(0, ofd.inode.size - offset)))
        nbytes = yield from self._do_read(ofd, count, offset)
        return nbytes

    def _do_write(self, ofd: OpenFileDescription, nbytes: int, offset: int
                  ) -> Generator:
        inode = ofd.inode
        if not ofd.writable:
            raise SimOSError(errno.EBADF, "descriptor not open for writing",
                             inode.path)
        if nbytes == 0:
            return 0
        backend = self.vfs.backend_for(inode.path)
        yield from backend.write(inode.key, offset, nbytes)
        inode.size = max(inode.size, offset + nbytes)
        if self.vfs.enable_page_cache:
            self.vfs.page_cache.insert(inode.key, offset, nbytes)
        return nbytes

    def write(self, fd: int, nbytes: int) -> Generator:
        """``write(2)``: write ``nbytes`` at the descriptor's current offset;
        returns the number written."""
        ofd = self.fds.get(fd)
        if nbytes < 0:
            raise SimOSError(errno.EINVAL, "negative count", ofd.inode.path)
        yield self._charge("write", nbytes)
        offset = ofd.inode.size if ofd.append else ofd.offset
        written = yield from self._do_write(ofd, nbytes, offset)
        ofd.offset = offset + written
        return written

    def pwrite(self, fd: int, nbytes: int, offset: int) -> Generator:
        """``pwrite(2)``: positional write, does not move the file offset."""
        ofd = self.fds.get(fd)
        if nbytes < 0 or offset < 0:
            raise SimOSError(errno.EINVAL, "negative count or offset",
                             ofd.inode.path)
        yield self._charge("pwrite", nbytes)
        written = yield from self._do_write(ofd, nbytes, offset)
        return written

    # -- metadata ---------------------------------------------------------------------
    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> Generator:
        """``lseek(2)``: reposition the file offset.  A bad ``whence`` or a
        negative result raises EINVAL before the call is counted."""
        ofd = self.fds.get(fd)
        if whence == SEEK_SET:
            new_offset = offset
        elif whence == SEEK_CUR:
            new_offset = ofd.offset + offset
        elif whence == SEEK_END:
            new_offset = ofd.inode.size + offset
        else:
            raise SimOSError(errno.EINVAL, f"bad whence {whence}", ofd.inode.path)
        if new_offset < 0:
            raise SimOSError(errno.EINVAL, "negative resulting offset",
                             ofd.inode.path)
        yield self._charge("lseek")
        ofd.offset = new_offset
        return new_offset

    def _stat_result(self, inode: Inode) -> StatResult:
        return StatResult(st_size=inode.size, is_dir=inode.is_dir)

    def stat(self, path: str) -> Generator:
        """``stat(2)``: metadata lookup by path."""
        yield self._charge("stat")
        inode = self.vfs.lookup(path)
        if not inode.is_dir:
            backend = self.vfs.backend_for(inode.path)
            yield from backend.stat(inode.key)
        return self._stat_result(inode)

    def fstat(self, fd: int) -> Generator:
        """``fstat(2)``: metadata lookup by descriptor (no device access)."""
        yield self._charge("fstat")
        ofd = self.fds.get(fd)
        return self._stat_result(ofd.inode)

    def access(self, path: str) -> Generator:
        """``access(2)``: existence check; returns 0 or raises ENOENT."""
        yield self._charge("access")
        self.vfs.lookup(path)
        return 0

    def unlink(self, path: str) -> Generator:
        """``unlink(2)``: remove a file."""
        yield self._charge("unlink")
        self.vfs.remove(path)
        return 0

    def mkdir(self, path: str) -> Generator:
        """``mkdir(2)``: create a directory."""
        yield self._charge("mkdir")
        self.vfs.mkdir(path)
        return 0

    def fsync(self, fd: int) -> Generator:
        """``fsync(2)``: for the write-through model this is a no-op delay."""
        yield self._charge("fsync")
        self.fds.get(fd)
        return 0

    # -- registration -----------------------------------------------------------------
    def bindings(self) -> dict:
        """Symbol bindings to install into a :class:`SymbolTable`."""
        return {
            "open": self.open,
            "close": self.close,
            "read": self.read,
            "pread": self.pread,
            "write": self.write,
            "pwrite": self.pwrite,
            "lseek": self.lseek,
            "stat": self.stat,
            "fstat": self.fstat,
            "access": self.access,
            "unlink": self.unlink,
            "mkdir": self.mkdir,
            "fsync": self.fsync,
        }
