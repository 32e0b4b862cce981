"""Structured single-line event logging for fleet components.

The dist stack's diagnostics used to be bare ``print`` calls — broker
``--verbose`` access lines interleaved with program stdout, and worker
progress was unparseable.  :class:`StructLogger` replaces them with one
``key=value`` line per event on **stderr** (stdout stays reserved for
program output), greppable by component and event name::

    [broker] request method=GET target=/healthz status=200 ms=0.21

The format is deliberately boring: no dependencies, no log levels
beyond an ``enabled`` switch (callers already gate on ``--verbose``),
values rendered compactly (floats to 4 significant places, strings
quoted only when they contain spaces).

>>> import io
>>> out = io.StringIO()
>>> log = StructLogger("broker", stream=out)
>>> log.event("request", method="GET", target="/list?prefix=a b",
...           status=200)
>>> out.getvalue()
"[broker] request method=GET target='/list?prefix=a b' status=200\\n"
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Optional, TextIO


def _render(value: Any) -> str:
    if isinstance(value, float):
        text = f"{value:.4g}"
    elif isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    if " " in text or "=" in text or not text:
        return repr(text)
    return text


class StructLogger:
    """One-line ``[component] event key=value ...`` logging to stderr."""

    def __init__(self, component: str, stream: Optional[TextIO] = None,
                 enabled: bool = True):
        self.component = component
        self.enabled = enabled
        self._stream = stream
        self._lock = threading.Lock()

    @property
    def stream(self) -> TextIO:
        # Resolved lazily so monkeypatched/capture-wrapped sys.stderr
        # (pytest capsys, contextlib.redirect_stderr) is honoured.
        return self._stream if self._stream is not None else sys.stderr

    def event(self, name: str, **fields: Any) -> None:
        """Emit one structured event line (no-op while disabled)."""
        if not self.enabled:
            return
        parts = [f"[{self.component}]", name]
        parts.extend(f"{key}={_render(value)}"
                     for key, value in fields.items())
        line = " ".join(parts) + "\n"
        with self._lock:
            stream = self.stream
            stream.write(line)
            try:
                stream.flush()
            except (OSError, ValueError):
                pass  # closed/detached stream: the event is best-effort

    def child(self, suffix: str) -> "StructLogger":
        """A logger for a subcomponent (``[broker.core]``), same stream."""
        log = StructLogger(f"{self.component}.{suffix}",
                           stream=self._stream, enabled=self.enabled)
        return log
