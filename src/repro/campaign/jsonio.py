"""Shared crash-consistent JSON helpers for the campaign layer.

Every durable artifact of the campaign stack — cache entries, work-queue
tickets/leases/results — is a small JSON document written with the same
two rules: writes are atomic (temp file in the same directory +
``os.replace``, so a reader never observes a torn write), and reads treat
unreadable or garbage content as absent rather than fatal (a crash can
leave stray bytes; it must never wedge the system).

Two layers live here:

* file helpers (:func:`atomic_write_bytes` / :func:`read_bytes_or_none`)
  used by the filesystem transport;
* byte-level codecs (:func:`json_dumps_bytes` / :func:`json_loads_or_none`)
  shared by every :class:`~repro.campaign.dist.transport.QueueTransport`
  implementation, the HTTP broker and the result cache, so all
  transports agree on one canonical encoding (sorted keys, UTF-8) —
  which keeps content-derived ETags identical no matter which transport
  produced a record, and lets two workers racing the same cache key
  produce byte-identical payloads their conditional create converges on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from threading import get_ident
from typing import Any, Dict, Optional


def json_dumps_bytes(payload: Dict[str, Any]) -> bytes:
    """Encode a JSON object canonically (sorted keys, UTF-8 bytes).

    The canonical form matters: queue transports derive ETags from the
    encoded bytes, so two processes writing the same logical record must
    produce the same bytes.

    >>> json_dumps_bytes({"b": 1, "a": 2})
    b'{"a": 2, "b": 1}'
    """
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def json_loads_or_none(data: Optional[bytes]) -> Optional[Dict[str, Any]]:
    """Decode JSON object bytes; ``None``/garbage/non-dict content is ``None``.

    The tolerant twin of :func:`json_dumps_bytes`: a truncated or corrupt
    record reads as absent, like a missing file in
    :func:`read_bytes_or_none`.

    >>> json_loads_or_none(b'{"a": 2}')
    {'a': 2}
    >>> json_loads_or_none(b'{"a": 2') is None
    True
    >>> json_loads_or_none(None) is None
    True
    """
    if data is None:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def atomic_write_bytes(path: Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns ``path``.

    The temp name carries the pid *and* thread id so concurrent writers —
    processes on a shared filesystem, threads of one fleet — never
    collide on the staging file.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}.{get_ident()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
    return path


def read_bytes_or_none(path: Path) -> Optional[bytes]:
    """Read a file's bytes; a missing or unreadable file is ``None``."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None
