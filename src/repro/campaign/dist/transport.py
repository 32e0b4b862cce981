"""Pluggable queue transports: one storage contract, many backends.

The distributed work queue (:class:`~repro.campaign.dist.queue.WorkQueue`)
is a state machine over *opaque keys* holding small JSON documents, and
the result cache (:class:`~repro.campaign.cache.TransportResultCache`)
rides the same seam — one storage contract carries a whole campaign's
durable state.  This module defines that contract —
three batch-shaped primitives modelled on an S3-style object store — and
three implementations:

* :class:`FsTransport` — keys are files under a root directory (the
  original shared-filesystem queue; any number of processes/hosts sharing
  the directory can participate);
* :class:`MemoryTransport` — keys in a lock-protected dict (fast tests and
  single-process thread fleets; truly atomic CAS);
* :class:`HttpTransport` — keys served by the
  :mod:`repro.campaign.dist.server` broker: reads and writes travel as
  ``POST /batch`` requests, listings as ``GET /list`` pages, over a
  pooled keep-alive connection per thread.

The contract
------------

A transport implements three primitives:

``get_many(keys)``
    One outcome per key, in order: ``(data, etag)``, or ``None`` when the
    key is absent.
``mutate_many(ops)``
    An ordered batch of conditional writes and deletes.  Each op is
    ``("put", key, data, condition)`` or ``("delete", key, if_match)``,
    and carries its own condition:

    * a put's ``condition`` is ``None`` — *create: the key must not
      exist* (HTTP ``If-None-Match: *``), the primitive every
      mutual-exclusion decision in the queue (claiming a job, creating
      the queue config) rests on, atomic on all three transports — an
      ETag string — *update: the current ETag must equal it* (HTTP
      ``If-Match``) — or :data:`ANY` for an unconditional write;
    * a delete's ``if_match`` is ``None`` (unconditional) or an ETag.

    Returns one outcome per op, in order: the new ETag (or ``None`` on
    conflict) for a put, ``True`` when a delete removed the key.  Ops
    apply *in order*, which is what lets the queue settle a finished job
    (write result + done marker, delete pending ticket + claim) in *one*
    broker round trip with the result still its commit point.
``list_page(prefix, max_keys, start_after="")``
    One page of the sorted listing: ``(keys, next_token)`` with at most
    ``max_keys`` keys strictly greater than ``start_after``.
    ``next_token`` is ``None`` on the final page, else the value to pass
    as the next ``start_after``.  Continuation is *keyset*-based (the
    token is the last key returned), so keys deleted or inserted between
    pages never skip or repeat survivors.

Everything else is derived once, in :class:`QueueTransport`: ``get(key)``
is a one-key ``get_many``; ``put(key, data)``, ``cas(key, data,
if_match)`` and ``delete(key, if_match=None)`` are one-op ``mutate_many``
calls (condition :data:`ANY`, ``if_match`` and ``if_match``); ``list(prefix)``
walks ``list_page`` in pages of :data:`MAX_LIST_PAGE` keys.  A server-side
``claim_first``, a ``stats`` probe and ``close`` are optional capabilities.

ETags are content-derived (:func:`etag_of`, a SHA-256 of the bytes): two
writes of identical bytes share an ETag on every transport, and a broker
restart cannot invalidate leases held by workers — the satellite property
the crash tests pin down.

Atomicity fine print: ``FsTransport`` implements conditional *create*
atomically (hard-link or ``O_EXCL`` tricks), but ``If-Match`` updates and
deletes are read-check-write — racy by nature of POSIX.  The queue is
designed so that every ``If-Match`` race degrades to a re-executed job
(results are content-derived, so re-execution is harmless), never to a
lost one.  ``MemoryTransport`` and the HTTP broker serialize mutations
under a lock, so for them every conditional operation is exact.
Batches are *not* transactions: each op succeeds or conflicts
individually.
"""

from __future__ import annotations

import base64
import binascii
import http.client
import hashlib
import os
import random
import socket
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.jsonio import (
    atomic_write_bytes,
    json_dumps_bytes,
    json_loads_or_none,
    read_bytes_or_none,
)
from repro.campaign.obs import MetricsRegistry, get_registry

#: ``mutate_many`` put condition meaning *unconditional write* (no
#: If-Match / If-None-Match).  A plain ``"*"`` so it survives JSON
#: serialization in the ``/batch`` wire format; it can never collide with
#: a real ETag (ETags are 32 lowercase hex characters).
ANY = "*"

#: Operations shipped per ``/batch`` request.  Bounds request bodies (a
#: 10k-job enqueue is a handful of requests, not one giant one) while
#: keeping the round-trip count two orders below per-key operations.
_BATCH_CHUNK = 256

#: Page size of the derived :meth:`QueueTransport.list` walk, and the
#: broker's default and cap for a ``/list`` request's ``max-keys``: a
#: listing of up to this many keys is one sort in memory, one directory
#: walk on disk and one ``/list`` round trip over HTTP.
MAX_LIST_PAGE = 10000


class TransportError(Exception):
    """A transport could not reach its backing store.

    Raised after retries are exhausted (connection refused, broker down,
    unwritable directory).  ``address`` names the failing store when the
    raising transport knows it, so a worker holding two transports (queue
    and cache) can blame the right one exactly.  Workers surface this as
    a clean exit code instead of a traceback — see
    :mod:`repro.campaign.dist.worker`.
    """

    def __init__(self, message: str, address: Optional[str] = None):
        super().__init__(message)
        self.address = address


def etag_of(data: bytes) -> str:
    """Content-derived ETag shared by every transport.

    >>> etag_of(b"x") == etag_of(b"x")
    True
    >>> etag_of(b"x") == etag_of(b"y")
    False
    """
    return hashlib.sha256(data).hexdigest()[:32]


class QueueTransport:
    """Abstract storage contract; see the module docstring for semantics.

    Subclasses implement the three primitives — :meth:`get_many`,
    :meth:`mutate_many` and :meth:`list_page` — and may advertise an
    ``address`` — a string another *process* can use to reach the same
    store (a directory path, an ``http://`` URL).  ``address`` is ``None``
    for in-process-only transports, which tells
    :class:`~repro.campaign.dist.executor.DistributedExecutor` to run its
    fleet as threads instead of spawned worker processes.

    The point operations (:meth:`get`, :meth:`put`, :meth:`cas`,
    :meth:`delete`) and the full :meth:`list` are derived here, once, so
    every backend answers them through its native primitives.
    """

    #: How a separate worker process addresses this store (``--queue`` arg);
    #: ``None`` when the store is reachable only from this process.
    address: Optional[str] = None

    # -- the three primitives ----------------------------------------------
    def get_many(self, keys: Sequence[str]
                 ) -> List[Optional[Tuple[bytes, str]]]:
        """One ``(data, etag)``-or-``None`` outcome per key, in order."""
        raise NotImplementedError

    def mutate_many(self, ops: Sequence[Tuple]) -> List[object]:
        """Apply a mixed ordered batch of writes and deletes.

        Each op is ``("put", key, data, condition)`` — condition ``None``
        (create), an ETag (update) or :data:`ANY` (unconditional) — or
        ``("delete", key, if_match)``.  Returns one outcome per op, in
        order: ETag-or-``None`` for puts, bool for deletes.  Not a
        transaction; each op succeeds or conflicts individually, in
        order.
        """
        raise NotImplementedError

    def list_page(self, prefix: str, max_keys: int,
                  start_after: str = "") -> Tuple[List[str], Optional[str]]:
        """One sorted page of at most ``max_keys`` keys after
        ``start_after``; ``(keys, next_token)`` with ``next_token=None``
        on the final page."""
        raise NotImplementedError

    # -- derived operations ------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[bytes, str]]:
        """``(data, etag)`` for ``key``, or ``None`` if absent."""
        return self.get_many([key])[0]

    def put(self, key: str, data: bytes) -> str:
        """Unconditional atomic write; returns the new ETag."""
        return self.mutate_many([("put", key, data, ANY)])[0]

    def cas(self, key: str, data: bytes,
            if_match: Optional[str]) -> Optional[str]:
        """Conditional write: create-if-absent (``if_match=None``) or
        update-if-ETag-matches.  Returns the new ETag, ``None`` on
        conflict."""
        return self.mutate_many([("put", key, data, if_match)])[0]

    def delete(self, key: str, if_match: Optional[str] = None) -> bool:
        """Remove ``key`` (optionally only at a matching ETag); ``True``
        when something was removed."""
        return self.mutate_many([("delete", key, if_match)])[0]

    def list(self, prefix: str) -> List[str]:
        """Sorted keys beginning with ``prefix``, walked in pages of
        :data:`MAX_LIST_PAGE` keys."""
        keys: List[str] = []
        start_after = ""
        while True:
            page, token = self.list_page(prefix, MAX_LIST_PAGE,
                                         start_after=start_after)
            keys.extend(page)
            if token is None:
                return keys
            start_after = token


def _page_of(keys: List[str], max_keys: int
             ) -> Tuple[List[str], Optional[str]]:
    """The first ``max_keys`` of the sorted ``keys`` plus the keyset
    continuation token (``None`` when nothing is left)."""
    page = keys[:max_keys]
    return page, (page[-1] if len(keys) > max_keys else None)


class MemoryTransport(QueueTransport):
    """In-process store: a dict under a lock.

    The reference implementation of the contract — every conditional
    operation is exact, and every primitive runs under *one* lock
    acquisition — and the fastest one, for unit tests and single-process
    thread fleets (``DistributedExecutor`` runs worker threads when the
    transport has no ``address``).

    >>> t = MemoryTransport()
    >>> tag = t.put("a/1", b"one")
    >>> t.get("a/1") == (b"one", tag)
    True
    >>> t.cas("a/1", b"two", if_match=None) is None  # exists: create fails
    True
    >>> t.cas("a/1", b"two", if_match=tag) == etag_of(b"two")
    True
    >>> t.list("a/")
    ['a/1']
    >>> t.delete("a/1", if_match="stale")
    False
    >>> t.delete("a/1")
    True

    ``mutate_many`` ops carry their own condition (``None`` create, ETag
    update, :data:`ANY` unconditional) and apply in order:

    >>> out = t.mutate_many([("put", "b/1", b"x", None),
    ...                      ("put", "b/1", b"y", None),
    ...                      ("put", "b/2", b"z", ANY),
    ...                      ("delete", "b/1", "stale")])
    >>> out == [etag_of(b"x"), None, etag_of(b"z"), False]
    True
    >>> t.get_many(["b/1", "b/2", "b/3"]) == [
    ...     (b"x", etag_of(b"x")), (b"z", etag_of(b"z")), None]
    True
    >>> t.list_page("b/", max_keys=1)
    (['b/1'], 'b/1')
    >>> t.list_page("b/", max_keys=1, start_after="b/1")
    (['b/2'], None)
    """

    address = None

    def __init__(self):
        self._data: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def _cas_locked(self, key: str, data: bytes,
                    if_match: Optional[str]) -> Optional[str]:
        current = self._data.get(key)
        if if_match is None:
            if current is not None:
                return None
        elif current is None or etag_of(current) != if_match:
            return None
        self._data[key] = data
        return etag_of(data)

    def _delete_locked(self, key: str, if_match: Optional[str]) -> bool:
        current = self._data.get(key)
        if current is None:
            return False
        if if_match is not None and etag_of(current) != if_match:
            return False
        del self._data[key]
        return True

    # -- the primitives: one lock acquisition each -------------------------
    def get_many(self, keys: Sequence[str]
                 ) -> List[Optional[Tuple[bytes, str]]]:
        with self._lock:
            found = [self._data.get(key) for key in keys]
        return [None if data is None else (data, etag_of(data))
                for data in found]

    def mutate_many(self, ops: Sequence[Tuple]) -> List[object]:
        out: List[object] = []
        with self._lock:
            for op in ops:
                if op[0] == "put":
                    _, key, data, condition = op
                    if condition == ANY:
                        self._data[key] = data
                        out.append(etag_of(data))
                    else:
                        out.append(self._cas_locked(key, data, condition))
                elif op[0] == "delete":
                    _, key, if_match = op
                    out.append(self._delete_locked(key, if_match))
                else:
                    raise ValueError(f"unknown mutate_many op: {op[0]!r}")
        return out

    def list_page(self, prefix: str, max_keys: int,
                  start_after: str = "") -> Tuple[List[str], Optional[str]]:
        with self._lock:
            keys = sorted(k for k in self._data
                          if k.startswith(prefix) and k > start_after)
        return _page_of(keys, max(1, int(max_keys)))

    def __repr__(self) -> str:
        return f"MemoryTransport(keys={len(self._data)})"


class FsTransport(QueueTransport):
    """Keys as files under a root directory on a (possibly shared) filesystem.

    Key segments map to subdirectories (``pending/x.json`` →
    ``<root>/pending/x.json``).  Writes are atomic (staged temp file +
    ``os.replace``); conditional *create* is atomic via a hard link (one
    concurrent creator wins), with an ``O_CREAT|O_EXCL`` fallback on
    filesystems without hard links.  ``If-Match`` updates/deletes are
    read-check-write — see the module docstring for why that is sufficient
    for the queue.  Batches are loops with per-batch bookkeeping (parent
    directories created once); there is no syscall-level batching to
    exploit.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # Unwritable/invalid store locations (queue or cache dirs)
            # surface through the same clean error path as an unreachable
            # broker (worker exit 3).
            raise TransportError(
                f"cannot create directory {self.root}: {exc}",
                address=str(self.root)) from exc
        self.address = str(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key

    def get_many(self, keys: Sequence[str]
                 ) -> List[Optional[Tuple[bytes, str]]]:
        out: List[Optional[Tuple[bytes, str]]] = []
        for key in keys:
            data = read_bytes_or_none(self._path(key))
            out.append(None if data is None else (data, etag_of(data)))
        return out

    def mutate_many(self, ops: Sequence[Tuple]) -> List[object]:
        out: List[object] = []
        made_dirs = set()
        for op in ops:
            if op[0] == "delete":
                _, key, if_match = op
                out.append(self._delete(self._path(key), if_match))
                continue
            if op[0] != "put":
                raise ValueError(f"unknown mutate_many op: {op[0]!r}")
            _, key, data, condition = op
            path = self._path(key)
            try:
                # Each parent directory is created once per batch, not
                # once per op.
                if path.parent not in made_dirs:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    made_dirs.add(path.parent)
                if condition == ANY:
                    atomic_write_bytes(path, data)
                    out.append(etag_of(data))
                elif condition is None:
                    out.append(self._create_exclusive(path, data))
                else:
                    current = read_bytes_or_none(path)
                    if current is None or etag_of(current) != condition:
                        out.append(None)
                    else:
                        atomic_write_bytes(path, data)
                        out.append(etag_of(data))
            except OSError as exc:
                raise TransportError(f"cannot write {path}: {exc}",
                                     address=self.address) from exc
        return out

    def _create_exclusive(self, path: Path, data: bytes) -> Optional[str]:
        # Stage the full content, then hard-link into place: creation is
        # both exclusive and atomic in content, so a concurrent reader can
        # never observe a partially written key.  The staging name carries
        # pid *and* thread id — two threads of one process racing the same
        # key (a thread-fleet cache put) must not share a staging file.
        tmp = path.parent / (f".{path.name}.create.{os.getpid()}"
                             f".{threading.get_ident()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            try:
                os.link(tmp, path)
                return etag_of(data)
            except FileExistsError:
                return None
            except OSError:
                pass  # filesystem without hard links: O_EXCL fallback
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        except OSError as exc:
            raise TransportError(f"cannot create {path}: {exc}",
                                 address=self.address) from exc
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        return etag_of(data)

    @staticmethod
    def _delete(path: Path, if_match: Optional[str]) -> bool:
        if if_match is not None:
            current = read_bytes_or_none(path)
            if current is None or etag_of(current) != if_match:
                return False
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def list_page(self, prefix: str, max_keys: int,
                  start_after: str = "") -> Tuple[List[str], Optional[str]]:
        # A true recursive prefix scan, like the in-memory and broker
        # stores: queue listings are directory-shaped ("pending/") and see
        # one level, while cache listings (prefix "") see the two-level
        # entry fan-out.  Hidden names are staging files (atomic_write /
        # _create_exclusive temps), never keys.
        directory, _, _ = prefix.rpartition("/")
        base = self.root / directory if directory else self.root
        head = f"{directory}/" if directory else ""
        keys: List[str] = []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            rel = os.path.relpath(dirpath, base)
            rel_head = "" if rel == "." else rel.replace(os.sep, "/") + "/"
            for name in filenames:
                if name.startswith("."):
                    continue
                key = head + rel_head + name
                if key.startswith(prefix) and key > start_after:
                    keys.append(key)
        keys.sort()
        return _page_of(keys, max(1, int(max_keys)))

    def __repr__(self) -> str:
        return f"FsTransport({str(self.root)!r})"


class _ConnectionDropped(Exception):
    """A pooled HTTP connection failed mid-exchange (internal signal).

    ``reused`` distinguishes a *stale keep-alive socket* — the server
    closed an idle pooled connection between our requests, the normal
    hazard of connection reuse — from a connection that failed on its
    very first use (a genuinely unreachable broker)."""

    def __init__(self, error: Exception, reused: bool):
        super().__init__(str(error))
        self.error = error
        self.reused = reused


class HttpTransport(QueueTransport):
    """Client of the :mod:`repro.campaign.dist.server` broker.

    Speaks the broker's dialect over a **pooled keep-alive**
    ``http.client.HTTPConnection`` (one per thread, reconnected
    transparently when it goes stale — the broker speaks HTTP/1.1, so the
    same TCP connection carries the whole campaign instead of paying a
    connect/teardown per request):

    * ``POST /batch`` → per-op statuses, one round trip for up to
      ``_BATCH_CHUNK`` conditional operations: :meth:`get_many` and
      :meth:`mutate_many`, and through them every derived point op (a
      ``get`` is a one-key batch);
    * ``GET /list?prefix=<p>[&max-keys=<n>&start-after=<k>]`` → JSON
      ``{"keys": [...], "truncated": bool, "next": <token>}``
      (:meth:`list_page`);
    * ``POST /claim`` (:meth:`claim_first`) and ``GET /stats``
      (:meth:`stats`).

    A read — a ``GET``, or a batch of nothing but gets — that fails on a
    *reused* pooled socket (the server closed an idle keep-alive
    connection — e.g. a broker restart between requests) is retried once
    on a fresh connection without consuming a retry attempt; transient
    connection failures beyond that are retried with exponential
    backoff, and once ``retries`` are exhausted a
    :class:`TransportError` is raised, which workers turn into a clean
    exit code.  Because ETags are content hashes, leases held across a
    broker restart remain valid — the broker's disk-backed store restores
    identical ETags.
    """

    def __init__(self, base_url: str, retries: int = 5,
                 retry_delay: float = 0.2, timeout: float = 10.0,
                 retry_max_delay: float = 5.0,
                 registry: Optional[MetricsRegistry] = None):
        self.base_url = base_url.rstrip("/")
        self.retries = max(0, int(retries))
        self.retry_delay = retry_delay
        self.retry_max_delay = retry_max_delay
        self.timeout = timeout
        self.address = self.base_url
        parsed = urllib.parse.urlsplit(self.base_url)
        self._https = parsed.scheme == "https"
        self._host = parsed.hostname or ""
        self._port = parsed.port
        self._prefix = parsed.path.rstrip("/")
        self._local = threading.local()
        # Client-side telemetry (defaults to the process-wide registry —
        # one snapshot describes a whole worker process): per-op latency,
        # retry pressure, and pooled-connection reuse.  The increments
        # are nanoseconds next to an HTTP round trip; the BENCH_obs.json
        # benchmark pins the overhead and the transport bench floor
        # (250 cycles/s per core) still gates CI with these on.
        registry = registry if registry is not None else get_registry()
        self._ops = registry.counter(
            "transport_ops_total", "HTTP exchanges issued, by op")
        self._op_seconds = registry.histogram(
            "transport_op_seconds", "end-to-end op latency incl. retries")
        self._retries = registry.counter(
            "transport_retries_total",
            "re-sent requests: free (stale pooled socket) vs backoff")
        self._connections = registry.counter(
            "transport_connections_total",
            "pooled connections opened vs exchanges that reused one")

    # -- connection pooling ------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's pooled connection, created on first use."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            maker = (http.client.HTTPSConnection if self._https
                     else http.client.HTTPConnection)
            conn = maker(self._host, self._port, timeout=self.timeout)
            conn.connect()
            # TCP_NODELAY: a POST's headers and body leave as two writes;
            # under Nagle the body would stall behind the peer's delayed
            # ACK (~40ms), erasing everything connection reuse buys.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.conn = conn
            self._local.used = False
            self._connections.inc(event="opened")
        else:
            self._connections.inc(event="reused")
        return conn

    def _discard_connection(self) -> None:
        """Drop this thread's pooled connection (stale or poisoned)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._local.conn = None

    def _exchange(self, method: str, path: str, data: Optional[bytes],
                  headers: Optional[Dict[str, str]]):
        """One request/response on the pooled connection.

        Returns ``(status, body)``; raises :class:`_ConnectionDropped` on
        any connection-level failure (the connection is discarded)."""
        reused = getattr(self._local, "conn", None) is not None \
            and bool(getattr(self._local, "used", False))
        try:
            conn = self._connection()
            conn.request(method, path, body=data, headers=dict(headers or {}))
            response = conn.getresponse()
            body = response.read()
        except (http.client.HTTPException, ConnectionError, TimeoutError,
                OSError) as exc:
            self._discard_connection()
            raise _ConnectionDropped(exc, reused) from exc
        self._local.used = True
        if response.will_close:
            # The server announced Connection: close — do not pool a
            # connection the peer is about to tear down.
            self._discard_connection()
        return response.status, body

    def _request(self, method: str, path: str, data: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 idempotent: Optional[bool] = None):
        """One HTTP exchange with stale-socket reconnect and retries.

        Returns ``(status, body)``.  4xx responses are returned (the
        caller maps them to contract results or errors).  An *idempotent*
        request (GET/LIST, or a ``/batch`` of gets — defaulting to "method
        is GET", overridable per call) that fails on a reused keep-alive
        socket gets one immediate free retry on a fresh connection: the
        server closing an idle pooled connection is the normal hazard of
        reuse, not a down broker.  Non-idempotent requests never get the
        free retry — a conditional write whose response was lost may have
        been applied, and silently re-sending it would misreport the
        outcome as a conflict; they (like all remaining connection-level
        failures) consume backoff retries, whose semantics callers
        already handle (see :meth:`~repro.campaign.dist.queue.WorkQueue.
        claim`'s own-write check).  Exhausted retries raise
        :class:`TransportError`.
        """
        if idempotent is None:
            idempotent = method == "GET"
        op = self._op_of(path)
        self._ops.inc(op=op)
        start = time.perf_counter()
        try:
            last_error: Optional[Exception] = None
            for attempt in range(self.retries + 1):
                try:
                    return self._exchange(method, path, data, headers)
                except _ConnectionDropped as dropped:
                    last_error = dropped.error
                    if dropped.reused and idempotent:
                        # Stale pooled socket, not a down broker: the
                        # retry on a fresh connection is free (does not
                        # burn a backoff attempt), so even retries=0
                        # transports survive keep-alive churn on their
                        # read paths.
                        self._retries.inc(kind="free")
                        try:
                            return self._exchange(method, path, data,
                                                  headers)
                        except _ConnectionDropped as again:
                            last_error = again.error
                if attempt < self.retries:
                    self._retries.inc(kind="backoff")
                    time.sleep(self._backoff_delay(attempt))
            raise TransportError(
                f"broker unreachable at {self.base_url} after "
                f"{self.retries + 1} attempts: {last_error}",
                address=self.base_url)
        finally:
            self._op_seconds.observe(time.perf_counter() - start, op=op)

    @staticmethod
    def _op_of(path: str) -> str:
        """Bounded op label for a request path (the route, never a key —
        metric cardinality must not grow with the keyspace)."""
        for route in ("batch", "claim", "list", "stats"):
            if f"/{route}" in path:
                return route
        return "other"

    def _backoff_delay(self, attempt: int) -> float:
        """Full-jitter exponential backoff, clamped to ``retry_max_delay``.

        A broker blip hits every worker in a fleet at once; if they all
        slept the same deterministic ``retry_delay * 2**attempt`` they
        would come back in lockstep and re-create the very thundering
        herd the backoff exists to dissipate.  Drawing uniformly from
        ``[0, min(cap, base * 2**attempt)]`` spreads the retries across
        the whole window (AWS-style "full jitter"), and the cap keeps the
        worst-case stall bounded no matter how many retries are
        configured.
        """
        ceiling = min(self.retry_max_delay,
                      self.retry_delay * (2 ** attempt))
        return random.uniform(0.0, max(0.0, ceiling))

    # -- the primitives ----------------------------------------------------
    def list_page(self, prefix: str, max_keys: int,
                  start_after: str = "") -> Tuple[List[str], Optional[str]]:
        query = {"prefix": prefix, "max-keys": max(1, int(max_keys))}
        if start_after:
            query["start-after"] = start_after
        status, body = self._request(
            "GET", f"{self._prefix}/list?{urllib.parse.urlencode(query)}")
        if status != 200:
            raise TransportError(f"LIST {prefix}: unexpected status {status}",
                                 address=self.base_url)
        payload = json_loads_or_none(body) or {}
        keys = [str(key) for key in payload.get("keys", [])]
        if not payload.get("truncated"):
            return keys, None
        token = payload.get("next") or (keys[-1] if keys else None)
        return keys, (str(token) if token is not None else None)

    def _batch(self, ops: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Ship ``ops`` as ``/batch`` requests of ``_BATCH_CHUNK`` ops.

        A batch of nothing but gets is idempotent and earns the free
        stale-socket retry (``get_many`` is the claim scan's hot probe,
        and every ``get`` is a one-key batch); any mutation in the batch
        forfeits it.
        """
        reads_only = all(op.get("op") == "get" for op in ops)
        results: List[Dict[str, object]] = []
        for start in range(0, len(ops), _BATCH_CHUNK):
            chunk = ops[start:start + _BATCH_CHUNK]
            status, body = self._request(
                "POST", f"{self._prefix}/batch",
                data=json_dumps_bytes({"ops": chunk}),
                headers={"Content-Type": "application/json"},
                idempotent=reads_only)
            if status != 200:
                raise TransportError(
                    f"BATCH: unexpected status {status}",
                    address=self.base_url)
            payload = json_loads_or_none(body) or {}
            outcomes = payload.get("results")
            if not isinstance(outcomes, list) or len(outcomes) != len(chunk):
                raise TransportError(
                    "BATCH: malformed response (op/result count mismatch)",
                    address=self.base_url)
            results.extend(outcomes)
        return results

    def get_many(self, keys: Sequence[str]
                 ) -> List[Optional[Tuple[bytes, str]]]:
        keys = list(keys)
        outcomes = self._batch([{"op": "get", "key": key} for key in keys])
        out: List[Optional[Tuple[bytes, str]]] = []
        for key, res in zip(keys, outcomes):
            status = res.get("status") if isinstance(res, dict) else None
            if status == 404:
                out.append(None)
            elif status == 200:
                try:
                    data = base64.b64decode(str(res.get("data", "")))
                except (binascii.Error, ValueError) as exc:
                    raise TransportError(
                        f"batch GET {key}: undecodable payload",
                        address=self.base_url) from exc
                out.append((data, str(res.get("etag", ""))))
            else:
                raise TransportError(
                    f"batch GET {key}: unexpected status {status}",
                    address=self.base_url)
        return out

    def mutate_many(self, ops: Sequence[Tuple]) -> List[object]:
        ops = list(ops)
        wire: List[Dict[str, object]] = []
        for op in ops:
            if op[0] == "put":
                _, key, data, condition = op
                encoded: Dict[str, object] = {
                    "op": "put", "key": key,
                    "data": base64.b64encode(data).decode("ascii")}
                if condition is None:
                    encoded["if_none_match"] = "*"
                elif condition != ANY:
                    encoded["if_match"] = condition
            elif op[0] == "delete":
                _, key, if_match = op
                encoded = {"op": "delete", "key": key}
                if if_match is not None:
                    encoded["if_match"] = if_match
            else:
                raise ValueError(f"unknown mutate_many op: {op[0]!r}")
            wire.append(encoded)
        outcomes = self._batch(wire)
        out: List[object] = []
        for op, res in zip(ops, outcomes):
            status = res.get("status") if isinstance(res, dict) else None
            if op[0] == "put":
                if status == 412:
                    out.append(None)
                elif status in (200, 201):
                    out.append(str(res.get("etag", "")))
                else:
                    raise TransportError(
                        f"batch PUT {op[1]}: unexpected status {status}",
                        address=self.base_url)
            else:
                if status in (200, 204):
                    out.append(True)
                elif status in (404, 412):
                    out.append(False)
                else:
                    raise TransportError(
                        f"batch DELETE {op[1]}: unexpected status {status}",
                        address=self.base_url)
        return out

    # -- server-side claim -------------------------------------------------
    def claim_first(self, prefix: str = "pending/", worker: str = "",
                    now: Optional[float] = None,
                    lease_seconds: Optional[float] = None
                    ) -> Optional[dict]:
        """Ask the broker to run one scan-probe-CAS claim pass server-side.

        ``POST /claim`` collapses the whole client-side claim sequence —
        page the pending listing, batch-probe results/pending/claims,
        CAS-create the claim document, read the job record — into a
        single round trip, decided under the broker's lock.  Returns the
        claim outcome document (``key``/``etag``/``attempts``/``record``/
        ``lease``) or ``None`` when the queue is drained (204); any other
        status — a 404 means the URL is not a broker — raises
        :class:`TransportError`.  ``now`` and ``lease_seconds`` are passed
        through for callers driving fake clocks; the broker defaults them
        to its wall clock and the queue config.

        The request is **not** idempotent: a retried POST whose first
        response was lost may have claimed a ticket whose lease the
        caller never learns about.  That degrades to a lease-expiry
        retry (the queue's normal at-least-once path), never a lost job.
        """
        query: Dict[str, str] = {"prefix": prefix, "worker": worker}
        if now is not None:
            query["now"] = repr(float(now))
        if lease_seconds is not None:
            query["lease"] = repr(float(lease_seconds))
        status, body = self._request(
            "POST", f"{self._prefix}/claim?{urllib.parse.urlencode(query)}",
            idempotent=False)
        if status == 204:
            return None
        if status != 200:
            raise TransportError(
                f"CLAIM {prefix}: unexpected status {status}",
                address=self.base_url)
        outcome = json_loads_or_none(body)
        if not isinstance(outcome, dict) or "key" not in outcome:
            raise TransportError(
                "CLAIM: malformed response body", address=self.base_url)
        return outcome

    def stats(self) -> dict:
        """The broker's ``GET /stats`` telemetry snapshot: the decoded
        ``{"server": ..., "metrics": ...}`` document.  Every broker
        serves the endpoint, so any other status — a 404 means the URL is
        not a broker — or a malformed body raises :class:`TransportError`.
        """
        status, body = self._request("GET", f"{self._prefix}/stats")
        if status != 200:
            raise TransportError(
                f"STATS: unexpected status {status}", address=self.base_url)
        payload = json_loads_or_none(body)
        if not isinstance(payload, dict):
            raise TransportError(
                "STATS: malformed response body", address=self.base_url)
        return payload

    def close(self) -> None:
        """Release this thread's pooled connection (other threads' pooled
        connections are dropped when their threads exit)."""
        self._discard_connection()

    def __repr__(self) -> str:
        return f"HttpTransport({self.base_url!r})"


def transport_from_address(address: os.PathLike, retries: int = 5,
                           retry_delay: float = 0.2) -> QueueTransport:
    """Build the right transport for an address string.

    ``http://`` / ``https://`` URLs get an :class:`HttpTransport` pointed
    at a broker; anything else is treated as a queue directory on a
    (possibly shared) filesystem.  This is how the worker CLI's
    ``--queue`` argument accepts both.  A malformed URL (say, a port that
    is not a number) raises ``ValueError``.
    """
    text = str(address)
    if text.startswith("http://") or text.startswith("https://"):
        return HttpTransport(text, retries=retries, retry_delay=retry_delay)
    return FsTransport(Path(text))
