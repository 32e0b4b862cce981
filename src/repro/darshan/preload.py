"""Classic (LD_PRELOAD-style) Darshan instrumentation.

Stock Darshan instruments a process by being preloaded ahead of libc so its
wrappers shadow the I/O symbols from the very first call, and it writes its
log when the process exits.  tf-Darshan deliberately does *not* work this
way (Table I of the paper): it attaches at runtime via
:mod:`repro.core.attach` instead.  This module provides the stock behaviour
so the two usage modes can be compared and the claim "we do not alter
Darshan's existing implementation" can be demonstrated: both modes patch
the wrapper mapping of
:meth:`~repro.darshan.runtime.DarshanCore.make_wrappers`, here over every
symbol the process resolves.
"""

from __future__ import annotations

from typing import Optional

from repro.posix.dispatch import SymbolTable
from repro.darshan.posix_module import PosixModule
from repro.darshan.runtime import DarshanConfig, DarshanCore
from repro.darshan.stdio_module import StdioModule
from repro.sim import Environment


class PreloadedDarshan:
    """Darshan set up the classic way: wrap everything at process start."""

    def __init__(self, env: Environment, symbols: SymbolTable,
                 config: Optional[DarshanConfig] = None):
        self.core = DarshanCore(env, config)
        self.symbols = symbols
        self._installed = False

    @property
    def posix_module(self) -> PosixModule:
        return self.core.get_module("POSIX")

    @property
    def stdio_module(self) -> StdioModule:
        return self.core.get_module("STDIO")

    def install(self) -> None:
        """Patch every known I/O symbol (what LD_PRELOAD does at load time)."""
        if self._installed:
            return
        real = {name: self.symbols.resolve(name)
                for name in self.symbols.symbols()}
        for name, wrapper in self.core.make_wrappers(real).items():
            self.symbols.patch(name, wrapper)
        self._installed = True

    def finalize(self, log_path: Optional[str] = None):
        """Shut the runtime down and (optionally) write the log file.

        Returns the in-memory :class:`~repro.darshan.log.DarshanLog`.
        """
        from repro.darshan.log import DarshanLog

        self.core.shutdown()
        log = DarshanLog.from_core(self.core)
        if log_path is not None:
            log.write(log_path)
        return log
