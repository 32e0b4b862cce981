"""POSIX errno model for the simulated syscall layer."""

from __future__ import annotations

import errno


class SimOSError(OSError):
    """OSError raised by the simulated POSIX layer.

    Carries the simulated errno, a standard :mod:`errno` code, in ``errno``
    so callers (and tests) can check failure modes exactly as they would
    against a real kernel.
    """

    def __init__(self, errno_code: int, message: str = "", path: str = ""):
        self.errno = errno_code
        name = errno.errorcode.get(errno_code, f"E{errno_code}")
        detail = f"[{name}] {message}"
        if path:
            detail += f": {path!r}"
        super().__init__(errno_code, detail)

    def __str__(self) -> str:
        return self.args[1]
