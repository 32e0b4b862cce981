"""Runtime attachment of Darshan instrumentation (the paper's Fig. 2).

Stock Darshan relies on ``LD_PRELOAD``; tf-Darshan instead loads the Darshan
shared library at the moment the first profiling session starts, scans the
process's Global Offset Table for the I/O symbols it wants to interpose and
patches them to point into Darshan — all without restarting the process and
without modifying Darshan itself.  In the reproduction the "GOT" is the
:class:`~repro.posix.dispatch.SymbolTable` of the simulated process and
"loading libdarshan.so" builds a :class:`~repro.darshan.runtime.DarshanCore`
from the options' Darshan configuration, as is; the attachment patches the
core's wrapper mapping, just as stock preloading does.

The attachment receives the simulation environment and the symbol table,
not the runtime that owns it, so nothing it holds points back at the
runtime.

Attachment is idempotent and reversible: ``detach`` restores every patched
symbol, which the paper lists as a capability difference against stock
Darshan (runtime start/stop in Table I).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.darshan.posix_module import PosixModule
from repro.darshan.runtime import DarshanCore
from repro.darshan.stdio_module import StdioModule
from repro.core.config import COSTS, TfDarshanOptions
from repro.posix.dispatch import SymbolTable
from repro.sim import Environment


class RuntimeAttachment:
    """Loads Darshan into the running process and patches the symbol table."""

    def __init__(self, env: Environment, symbols: SymbolTable,
                 options: Optional[TfDarshanOptions] = None):
        self.env = env
        self.symbols = symbols
        self.options = options or TfDarshanOptions()
        self.core: Optional[DarshanCore] = None
        self.attached = False
        self.patched_symbols: List[str] = []
        #: Number of times attach() found itself already attached.
        self.reattach_requests = 0

    @property
    def posix_module(self) -> Optional[PosixModule]:
        return self.core.get_module("POSIX") if self.core else None

    @property
    def stdio_module(self) -> Optional[StdioModule]:
        return self.core.get_module("STDIO") if self.core else None

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> Generator:
        """Load Darshan and patch the requested symbols (idempotent)."""
        if self.attached:
            self.reattach_requests += 1
            return self
        # "dlopen libdarshan.so": instantiate the Darshan runtime inside the
        # process.
        self.core = DarshanCore(self.env, self.options.darshan)

        # "Scan the GOT": every registered I/O symbol we were asked to
        # interpose and that actually resolves in this process.
        available = set(self.symbols.symbols())
        real: Dict[str, object] = {name: self.symbols.resolve(name)
                                   for name in self.options.symbols
                                   if name in available}

        # "Patch the GOT": redirect the symbols into the Darshan wrappers.
        for name, wrapper in self.core.make_wrappers(real).items():
            self.symbols.patch(name, wrapper)
            self.patched_symbols.append(name)

        yield self.env.timeout(COSTS.attach)
        self.attached = True
        return self

    def detach(self) -> Generator:
        """Restore every symbol this attachment patched."""
        if not self.attached:
            return self
        for name in self.patched_symbols:
            self.symbols.restore(name)
        self.patched_symbols = []
        yield self.env.timeout(COSTS.detach)
        self.attached = False
        return self

