"""The simulated operating-system / process image.

:class:`SimulatedOS` wires together the pieces a single process sees:
virtual filesystem + page cache, POSIX syscall layer, STDIO layer, and the
dynamic symbol table through which the application (TensorFlow) performs all
I/O.  tf-Darshan attaches to the symbol table at runtime; dstat watches the
devices below the mount table.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Environment
from repro.storage import MountTable, PageCache, StorageBackend
from repro.posix.dispatch import SymbolTable
from repro.posix.stdio import StdioLayer
from repro.posix.syscalls import PosixLayer
from repro.posix.vfs import VirtualFileSystem


class SimulatedOS:
    """One simulated node: filesystems, syscalls, stdio and the symbol table."""

    def __init__(
        self,
        env: Environment,
        mount_table: Optional[MountTable] = None,
        page_cache: Optional[PageCache] = None,
        enable_page_cache: bool = True,
    ):
        self.env = env
        self.vfs = VirtualFileSystem(
            mount_table=mount_table, page_cache=page_cache,
            enable_page_cache=enable_page_cache)
        self.posix = PosixLayer(env, self.vfs)
        self.stdio = StdioLayer(env, self.posix)
        self.symbols = SymbolTable()
        self.symbols.register_many(self.posix.bindings())
        self.symbols.register_many(self.stdio.bindings())

    # -- convenience -------------------------------------------------------
    def mount(self, mount_point: str, backend: StorageBackend) -> None:
        """Mount a storage backend at ``mount_point``."""
        self.vfs.mount(mount_point, backend)

    def drop_caches(self) -> None:
        """Drop page and metadata caches (the paper's pre-run protocol)."""
        self.vfs.drop_caches()

    def devices(self):
        """All block devices (for the dstat monitor)."""
        return self.vfs.devices()

    def call(self, name: str, *args, **kwargs):
        """Issue an I/O call through the symbol table (``yield from`` this)."""
        return self.symbols.resolve(name)(*args, **kwargs)
