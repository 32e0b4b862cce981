"""Dynamic symbol dispatch table — the Global Offset Table analogue.

In the paper, tf-Darshan loads ``libdarshan.so`` with ``dlopen`` and patches
the process's Global Offset Table so that I/O symbols which normally resolve
into libc resolve into Darshan's wrappers instead (Fig. 2).  The simulated
process performs all I/O through this :class:`SymbolTable`: callers look up
symbols by name exactly like PLT stubs do, the "libc" implementations are
registered at link time, and a profiler can *patch* individual entries at
runtime and later restore them.  Patching is reversible, per-symbol, and
bidirectional information flow is possible because the patching code and the
patched application live in the same address space — which is precisely the
property the paper exploits.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List

#: POSIX symbols the reproduction routes through the table.
POSIX_SYMBOLS = (
    "open", "close", "read", "pread", "write", "pwrite", "lseek",
    "stat", "fstat", "fsync", "unlink", "mkdir", "access",
)

#: STDIO symbols (buffered streams) routed through the table.
STDIO_SYMBOLS = (
    "fopen", "fclose", "fread", "fwrite", "fseek", "ftell", "fflush",
)

#: Every symbol an I/O instrumentation tool may want to interpose.
IO_SYMBOLS = POSIX_SYMBOLS + STDIO_SYMBOLS


class SymbolNotFound(KeyError):
    """Raised when resolving a symbol that was never registered."""


class SymbolTable:
    """A patchable mapping from symbol names to generator functions.

    Every registered function returns a *simulation generator*: callers
    invoke it with ``yield from table.resolve("pread")(fd, count, offset)``
    so the I/O cost is charged to the simulated clock of the calling
    process.
    """

    def __init__(self):
        self._current: Dict[str, Callable[..., Generator]] = {}
        self._original: Dict[str, Callable[..., Generator]] = {}

    # -- link-time registration ------------------------------------------------
    def register(self, name: str, func: Callable[..., Generator]) -> None:
        """Bind ``name`` to its default ("libc") implementation."""
        if not callable(func):
            raise TypeError(f"symbol {name!r} must be bound to a callable")
        self._current[name] = func
        self._original[name] = func

    def register_many(self, bindings: Dict[str, Callable[..., Generator]]) -> None:
        """Register several symbols at once."""
        for name, func in bindings.items():
            self.register(name, func)

    # -- resolution --------------------------------------------------------------
    def symbols(self) -> List[str]:
        """Names of all registered symbols (what a GOT scan would find)."""
        return sorted(self._current)

    def resolve(self, name: str) -> Callable[..., Generator]:
        """Current binding of ``name`` (patched or original)."""
        try:
            return self._current[name]
        except KeyError:
            raise SymbolNotFound(name) from None

    # -- runtime patching -----------------------------------------------------------
    def is_patched(self, name: str) -> bool:
        """``True`` if ``name`` currently points away from its original."""
        return name in self._current and self._current[name] is not self._original[name]

    def patch(self, name: str, func: Callable[..., Generator]
              ) -> Callable[..., Generator]:
        """Redirect ``name`` to ``func``; returns the previous binding.

        This is the analogue of overwriting one GOT entry.  The previous
        binding is returned so the wrapper can forward to the real call.
        """
        previous = self.resolve(name)
        if not callable(func):
            raise TypeError("patch target must be callable")
        self._current[name] = func
        return previous

    def restore(self, name: str) -> None:
        """Point ``name`` back at its original binding."""
        if name not in self._original:
            raise SymbolNotFound(name)
        self._current[name] = self._original[name]

    def patched_symbols(self) -> List[str]:
        """Names currently redirected away from their originals."""
        return sorted(n for n in self._current if self.is_patched(n))
