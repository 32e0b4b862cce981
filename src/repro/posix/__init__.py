"""POSIX layer: virtual filesystem, syscalls, stdio and the symbol table."""

from repro.posix.dispatch import (
    IO_SYMBOLS,
    POSIX_SYMBOLS,
    STDIO_SYMBOLS,
    SymbolNotFound,
    SymbolTable,
)
from repro.posix.errors import SimOSError
from repro.posix.fdtable import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    FileDescriptorTable,
    OpenFileDescription,
)
from repro.posix.osimage import SimulatedOS
from repro.posix.stdio import DEFAULT_BUFFER_SIZE, FileStream, StdioLayer
from repro.posix.syscalls import PosixCosts, PosixLayer
from repro.posix.vfs import Inode, StatResult, VirtualFileSystem, normalize_path

__all__ = [
    "DEFAULT_BUFFER_SIZE",
    "FileDescriptorTable",
    "FileStream",
    "IO_SYMBOLS",
    "Inode",
    "O_APPEND",
    "O_CREAT",
    "O_RDONLY",
    "O_RDWR",
    "O_TRUNC",
    "O_WRONLY",
    "OpenFileDescription",
    "POSIX_SYMBOLS",
    "PosixCosts",
    "PosixLayer",
    "SEEK_CUR",
    "SEEK_END",
    "SEEK_SET",
    "STDIO_SYMBOLS",
    "SimOSError",
    "SimulatedOS",
    "StatResult",
    "StdioLayer",
    "SymbolNotFound",
    "SymbolTable",
    "VirtualFileSystem",
    "normalize_path",
]
