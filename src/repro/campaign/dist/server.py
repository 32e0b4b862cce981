"""An HTTP broker serving the queue-transport dialect.

Runnable as a module::

    python -m repro.campaign.dist.server --port 8123 [--data-dir DIR] \
        [--host 0.0.0.0] [--verbose]

The broker is the network hop that lets a campaign scale past one shared
filesystem: the orchestrator and any number of workers point
:class:`~repro.campaign.dist.transport.HttpTransport` at it
(``--queue http://host:8123``) and run the exact same queue protocol they
would run over a shared directory.

Design:

* **Storage is a transport.**  The broker fronts a
  :class:`~repro.campaign.dist.transport.MemoryTransport` by default, or a
  :class:`~repro.campaign.dist.transport.FsTransport` under ``--data-dir``
  — in which case the whole queue state survives a broker restart, and
  because ETags are content-derived, *leases held by workers remain valid
  across the restart* (the crash tests pin this down).
* **One event loop, one dialect.**  A selector event loop owns every
  connection (a thousand-worker fleet costs a thousand sockets, not a
  thousand parked OS threads) and parses requests off them; all request
  semantics live in :class:`BrokerDialect`, a dispatcher from parsed
  requests to replies.
* **Requests serialize.**  Conditional writes and deletes (``if_match``
  / ``if_none_match: "*"``) must be atomic even over the
  read-check-write filesystem transport.  The dialect answers every
  request under one lock; since the dialect only ever runs on the
  event-loop thread the lock is uncontended, and it keeps each request
  an exclusive section of the store however the dialect is driven.
* **Server-side claim.**  ``POST /claim`` runs the queue's whole
  scan-probe-CAS claim pass (:func:`repro.campaign.dist.queue.
  claim_first_over`) broker-side, collapsing the claim's four round
  trips into one.
* **Batching.**  ``POST /batch`` executes many conditional operations
  from one request body in order, returning a per-op status — one round
  trip for what used to be dozens, and the only route that reads or
  writes keys (a single ``get`` is a one-op batch).  Batches are not
  transactions: each op succeeds or conflicts individually.
* **Pagination.**  ``GET /list`` serves bounded keyset pages
  (``max-keys``, default and cap :data:`MAX_LIST_PAGE`, and
  ``start-after``), so claim scans and drain polls fetch bounded pages
  and deletions between pages never skip survivors.
* **Dialect** (see :class:`~repro.campaign.dist.transport.HttpTransport`):
  ``POST /batch``, ``POST /claim``, ``GET /list?prefix=<p>`` →
  ``{"keys": [...]}``, ``GET /healthz`` for liveness probes and
  ``GET /stats`` for the telemetry snapshot the
  ``python -m repro.campaign.dist.stats`` dashboard polls (per-route
  request counts and latency histograms, in-flight gauge, bytes in/out,
  claim outcomes — all from the per-dialect
  :class:`~repro.campaign.obs.metrics.MetricsRegistry`).  Connections
  are HTTP/1.1 keep-alive: one TCP connection
  carries a whole campaign.  Malformed requests (bad ``Content-Length``,
  garbage request line) are answered with 400 and an *announced*
  connection close — never a desynced keep-alive stream.

For tests and single-process demos, :class:`Broker` runs the event loop
on a background thread (``with Broker() as broker:
HttpTransport(broker.url)``).
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import binascii
import http.client
import math
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from repro.campaign.jsonio import json_dumps_bytes, json_loads_or_none
from repro.campaign.obs import MetricsRegistry, StructLogger
from repro.campaign.dist.queue import claim_first_over
from repro.campaign.dist.transport import (
    MAX_LIST_PAGE,
    FsTransport,
    MemoryTransport,
    QueueTransport,
)

#: Upper bound on operations accepted in one ``/batch`` request.
MAX_BATCH_OPS = 1024

#: Header-count cap per request in the parser — a framing sanity bound,
#: far above anything :class:`~repro.campaign.dist.transport.
#: HttpTransport` sends.
_MAX_HEADERS = 100

SERVER_VERSION = "repro-queue-broker/3.0"


class _Reply:
    """One response from the dialect: status and body."""

    __slots__ = ("status", "body")

    def __init__(self, status: int, body: bytes = b""):
        self.status = status
        self.body = body


class BrokerDialect:
    """The broker's request semantics, independent of socket handling.

    The event loop parses bytes off its sockets and hands
    ``(method, target, body)`` to :meth:`handle`; everything the
    wire dialect *means* — batches, listings, the server-side claim —
    lives here.

    Test hook (used by the regression suites, harmless in production):

    ``force_close``
        When true, the connection is dropped after every reply *without
        announcing it* — simulating a broker that closes idle pooled
        sockets, the stale-keep-alive hazard the transport's free retry
        exists for.

    Every dialect owns a private :class:`~repro.campaign.obs.metrics.
    MetricsRegistry` (per-broker isolation — two brokers in one test
    process must not share counters) whose snapshot ``GET /stats``
    serves; see docs/observability.md for the family catalogue.
    """

    def __init__(self, store: QueueTransport, verbose: bool = False):
        self.store = store
        self.verbose = verbose
        self.force_close = False
        self.started_at = time.time()
        self.log = StructLogger("broker", enabled=verbose)
        self.registry = MetricsRegistry()
        # Held around each request's dispatch: a conditional write or
        # delete is a read-check-write on the filesystem store and must
        # not interleave with another request's.
        self._lock = threading.Lock()
        self._requests = self.registry.counter(
            "broker_requests_total", "requests served, by route/method/status")
        self._latency = self.registry.histogram(
            "broker_request_seconds", "dialect handling latency, by route")
        self._inflight = self.registry.gauge(
            "broker_inflight_requests", "requests currently inside handle()")
        self._bytes_in = self.registry.counter(
            "broker_bytes_in_total", "request body bytes received")
        self._bytes_out = self.registry.counter(
            "broker_bytes_out_total", "response body bytes sent")
        self._claims = self.registry.counter(
            "broker_claims_total", "POST /claim outcomes")

    @staticmethod
    def _route(path: str) -> str:
        """Collapse the target into a bounded label set (labels must not
        grow with whatever paths clients send)."""
        if path in ("/healthz", "/list", "/batch", "/claim", "/stats"):
            return path
        return "other"

    # -- dispatch ----------------------------------------------------------
    def handle(self, method: str, target: str, body: bytes) -> _Reply:
        """Answer one parsed request.

        This wrapper is the metering point: per-route request counts,
        latency, in-flight level, body bytes in and out, plus the
        ``--verbose`` access line (to stderr — stdout stays reserved for
        program output).
        """
        parsed = urllib.parse.urlsplit(target)
        route = self._route(parsed.path)
        self._inflight.inc()
        start = time.perf_counter()
        try:
            with self._lock:
                reply = self._dispatch(method, parsed.path, parsed.query,
                                       body)
        finally:
            elapsed = time.perf_counter() - start
            self._inflight.dec()
        self._latency.observe(elapsed, route=route)
        self._requests.inc(route=route, method=method, status=reply.status)
        if body:
            self._bytes_in.inc(len(body), route=route)
        if reply.body:
            self._bytes_out.inc(len(reply.body), route=route)
        if self.verbose:
            self.log.event("request", method=method, target=target,
                           status=reply.status, ms=elapsed * 1000.0)
        return reply

    def _dispatch(self, method: str, path: str, query: str,
                  body: bytes) -> _Reply:
        if method == "GET":
            if path == "/healthz":
                return _Reply(200, json_dumps_bytes({"ok": True}))
            if path == "/list":
                return self._list(query)
            if path == "/stats":
                return self._stats()
            return _Reply(404)
        if method == "POST":
            if path == "/batch":
                return self._batch(body)
            if path == "/claim":
                return self._claim(query)
            return _Reply(404)
        return _Reply(501)

    # -- /stats ------------------------------------------------------------
    def _stats(self) -> _Reply:
        """``GET /stats`` → the broker's telemetry snapshot.

        ``{"server": {...identity/uptime...}, "metrics": <registry
        snapshot>}`` — see docs/distributed.md for the wire format and
        docs/observability.md for the metric families.  Always 200, even
        on a broker that has served nothing (the ``dist.stats`` CLI's
        first poll must not 404).
        """
        payload = {
            "server": {
                "version": SERVER_VERSION,
                "store": type(self.store).__name__,
                "started_at": self.started_at,
                "uptime_seconds": max(0.0, time.time() - self.started_at),
            },
            "metrics": self.registry.snapshot(),
        }
        return _Reply(200, json_dumps_bytes(payload))

    # -- /list -------------------------------------------------------------
    def _list(self, query_string: str) -> _Reply:
        """``/list?prefix=<p>[&max-keys=<n>&start-after=<k>]``.

        One keyset page: ``{"keys": [...], "truncated": bool, "next":
        tok}``.  ``max-keys`` defaults to, and is clamped to,
        :data:`MAX_LIST_PAGE`.
        """
        query = urllib.parse.parse_qs(query_string)
        prefix = (query.get("prefix") or [""])[0]
        raw_max = (query.get("max-keys") or [str(MAX_LIST_PAGE)])[0]
        start_after = (query.get("start-after") or [""])[0]
        try:
            max_keys = int(raw_max)
        except ValueError:
            max_keys = 0
        if max_keys < 1:
            return _Reply(400, json_dumps_bytes(
                {"error": f"bad max-keys: {raw_max!r}"}))
        max_keys = min(max_keys, MAX_LIST_PAGE)
        page, token = self.store.list_page(prefix, max_keys,
                                           start_after=start_after)
        payload: Dict[str, Any] = {"keys": page,
                                   "truncated": token is not None}
        if token is not None:
            payload["next"] = token
        return _Reply(200, json_dumps_bytes(payload))

    # -- /batch ------------------------------------------------------------
    def _batch(self, body: bytes) -> _Reply:
        payload = json_loads_or_none(body)
        ops = payload.get("ops") if payload else None
        if not isinstance(ops, list):
            return _Reply(400, json_dumps_bytes(
                {"error": "body must be a JSON object with an 'ops' list"}))
        if len(ops) > MAX_BATCH_OPS:
            return _Reply(400, json_dumps_bytes(
                {"error": f"too many ops ({len(ops)} > {MAX_BATCH_OPS})"}))
        results = [self._apply(op) for op in ops]
        return _Reply(200, json_dumps_bytes({"results": results}))

    def _apply(self, op: Any) -> Dict[str, Any]:
        """Execute one batch op.

        Per-op statuses follow HTTP conventions: ``get`` → 200
        (``etag`` + base64 ``data``) / 404; ``put`` → 200 (``etag``) /
        412; ``delete`` → 204 / 404 / 412.  A malformed op is a per-op
        400 — the rest of the batch still applies.
        """
        if not isinstance(op, dict):
            return {"status": 400, "error": "op must be an object"}
        kind = op.get("op")
        key = op.get("key")
        if kind not in ("get", "put", "delete") or not isinstance(key, str) \
                or not key:
            return {"status": 400, "error": "need op in get/put/delete "
                                            "and a non-empty key"}
        if kind == "get":
            got = self.store.get(key)
            if got is None:
                return {"status": 404}
            data, etag = got
            return {"status": 200, "etag": etag,
                    "data": base64.b64encode(data).decode("ascii")}
        if kind == "put":
            try:
                data = base64.b64decode(str(op.get("data", "")),
                                        validate=True)
            except (binascii.Error, ValueError):
                return {"status": 400, "error": "data must be base64"}
            if_match = op.get("if_match")
            if op.get("if_none_match") == "*":
                etag = self.store.cas(key, data, if_match=None)
            elif if_match is not None:
                etag = self.store.cas(key, data, if_match=str(if_match))
            else:
                etag = self.store.put(key, data)
            if etag is None:
                return {"status": 412}
            return {"status": 200, "etag": etag}
        if_match = op.get("if_match")
        existed = self.store.get(key) is not None
        if self.store.delete(
                key, if_match=str(if_match) if if_match is not None else None):
            return {"status": 204}
        return {"status": 412 if existed else 404}

    # -- /claim ------------------------------------------------------------
    def _claim(self, query_string: str) -> _Reply:
        """``POST /claim?prefix=pending/&worker=<id>[&now=<t>&lease=<s>]``.

        Runs one scan-probe-CAS claim pass (:func:`repro.campaign.dist.
        queue.claim_first_over`) against the broker's own store, where
        every "round trip" of the scan is a local operation.  Replies
        200 with the JSON claim outcome (``key``/``etag``/``attempts``/
        ``record``/``lease``), or 204 when nothing
        is claimable.  ``now`` and ``lease`` carry the *claimant's*
        clock and adopted lease policy, so lease arithmetic matches the
        client-side scan exactly (and fake-clock tests work over HTTP);
        when omitted the broker falls back to its wall clock and the
        stored queue config.
        """
        query = urllib.parse.parse_qs(query_string)
        prefix = (query.get("prefix") or ["pending/"])[0]
        worker = (query.get("worker") or [""])[0]
        raw_now = (query.get("now") or [None])[0]
        raw_lease = (query.get("lease") or [None])[0]
        if not prefix.endswith("pending/"):
            self._claims.inc(outcome="bad_request")
            return _Reply(400, json_dumps_bytes(
                {"error": f"prefix must end with 'pending/': {prefix!r}"}))
        now: Optional[float] = None
        if raw_now is not None:
            try:
                now = float(raw_now)
            except ValueError:
                now = math.nan
            if not math.isfinite(now):
                self._claims.inc(outcome="bad_request")
                return _Reply(400, json_dumps_bytes(
                    {"error": f"bad now: {raw_now!r}"}))
        lease: Optional[float] = None
        if raw_lease is not None:
            try:
                lease = float(raw_lease)
            except ValueError:
                lease = math.nan
            if not (math.isfinite(lease) and lease > 0):
                self._claims.inc(outcome="bad_request")
                return _Reply(400, json_dumps_bytes(
                    {"error": f"bad lease: {raw_lease!r}"}))
        outcome = claim_first_over(self.store, prefix=prefix, worker=worker,
                                   now=now, lease_seconds=lease,
                                   registry=self.registry)
        if outcome is None:
            self._claims.inc(outcome="empty")
            return _Reply(204)
        self._claims.inc(outcome="claimed")
        return _Reply(200, json_dumps_bytes(outcome))


# ---------------------------------------------------------------------------
# the event loop: parse requests off sockets, answer via the dialect
# ---------------------------------------------------------------------------

class _BadRequest(Exception):
    """The connection's byte stream is not a parseable HTTP request."""


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, str,
                                            Dict[str, str], bytes]]:
    """Parse one HTTP/1.x request off the stream.

    Returns ``(method, target, version, headers, body)`` with lowercase
    header names, ``None`` on a clean EOF between requests.  Raises
    :class:`_BadRequest` when the stream cannot be framed (garbage
    request line, malformed or negative ``Content-Length``, unbounded
    headers) — the caller answers 400 and closes, because there is no
    knowing where the broken request ends.  The body is read for *every*
    method, so a GET or DELETE that arrives with a body can never desync
    the keep-alive stream.
    """
    # One readuntil pulls the whole head (request line + headers) off the
    # buffer in a single pass — measurably cheaper than a readline per
    # header on the broker's hot path.
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        leftover = error.partial.strip(b"\r\n")
        if not leftover:
            return None  # clean EOF between requests (or stray CRLFs)
        if b"\r\n" in error.partial or b"\n" in error.partial:
            return None  # EOF mid-headers: peer went away, just close
        raise _BadRequest(f"bad request line: {error.partial!r}")
    except asyncio.LimitOverrunError:
        raise _BadRequest("request head too large")
    # Tolerate stray CRLFs between pipelined requests (RFC 7230 §3.5).
    lines = head[:-4].lstrip(b"\r\n").split(b"\r\n")
    parts = lines[0].decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(f"bad request line: {lines[0]!r}")
    method, target, version = parts
    if len(lines) - 1 > _MAX_HEADERS:
        raise _BadRequest("too many headers")
    headers: Dict[str, str] = {}
    for hline in lines[1:]:
        if not hline:
            continue
        name, sep, value = hline.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"bad header line: {hline!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "").strip()
    if raw_length:
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(f"malformed Content-Length: {raw_length!r}")
        if length < 0:
            raise _BadRequest(f"negative Content-Length: {raw_length!r}")
    else:
        length = 0
    body = await reader.readexactly(length) if length else b""
    return method, target, version, headers, body


def _render_response(status: int, body: bytes,
                     announce_close: bool) -> bytes:
    """One response as a single ``bytes`` — headers and body leave in one
    ``write`` (with TCP_NODELAY there is no Nagle stall to dodge, but one
    syscall per response is still the cheap shape)."""
    reason = http.client.responses.get(status, "")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Server: {SERVER_VERSION}",
             f"Content-Length: {len(body)}"]
    if announce_close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _serve_connection(dialect: BrokerDialect,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one keep-alive connection until close/EOF/unframeable bytes."""
    while True:
        try:
            request = await _read_request(reader)
        except _BadRequest:
            # The stream cannot be re-synchronized: announce the close so
            # a well-behaved client does not pool the connection.
            try:
                writer.write(_render_response(
                    400,
                    json_dumps_bytes({"error": "malformed request"}),
                    announce_close=True))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return
        except (asyncio.IncompleteReadError, ConnectionError,
                TimeoutError, ValueError, OSError):
            return  # peer vanished mid-request (or overlong line)
        if request is None:
            return  # clean EOF between requests
        method, target, version, headers, body = request
        try:
            reply = dialect.handle(method, target, body)
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            reply = _Reply(500)
        close = (version == "HTTP/1.0"
                 or headers.get("connection", "").strip().lower() == "close")
        announce = close
        if dialect.force_close:
            # Unannounced close after the reply: the stale-keep-alive
            # test hook (see BrokerDialect.force_close).
            close, announce = True, False
        # Access lines come from the dialect itself (stderr, structured)
        # — verbose output never interleaves with program stdout.
        try:
            writer.write(_render_response(reply.status, reply.body,
                                          announce))
            await writer.drain()
        except (ConnectionError, OSError):
            return
        if close:
            return


class Broker:
    """An embeddable broker: the event loop on a background thread.

    For tests, demos and single-process fleets::

        with Broker(data_dir="…/state") as broker:
            transport = HttpTransport(broker.url)

    ``stop()`` (or leaving the ``with`` block) shuts the listener down;
    it is idempotent and safe to call before :meth:`start` (it just
    releases the port).  With ``data_dir`` a new ``Broker`` over the
    same directory resumes the exact queue state — including live
    leases, since ETags are content-derived.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 data_dir: Optional[str] = None, verbose: bool = False):
        store: QueueTransport = (FsTransport(str(data_dir)) if data_dir
                                 else MemoryTransport())
        self.dialect = BrokerDialect(store, verbose=verbose)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        # Bind in the constructor so the port is known (and the URL
        # printable) before start().
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]

    @property
    def url(self) -> str:
        """Base URL workers point ``--queue`` at."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "Broker":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name=f"broker-{self.port}",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("broker event loop failed to start")
        if self._start_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise RuntimeError(
                f"broker event loop failed to start: {self._start_error}")
        return self

    def serve_forever(self) -> None:
        """Serve on the *calling* thread (the CLI path); returns after
        :meth:`stop` or ``KeyboardInterrupt``."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        server = None
        try:
            try:
                server = loop.run_until_complete(asyncio.start_server(
                    self._client_connected, sock=self._sock))
            except BaseException as exc:  # surface bind/listen failures
                self._start_error = exc
                raise
            finally:
                self._started.set()
            loop.run_forever()
        except KeyboardInterrupt:
            pass
        finally:
            if server is not None:
                server.close()
            try:
                # Deliberately no Server.wait_closed(): it would wait for
                # the workers' pooled keep-alive connections, which never
                # close on their own.  Cancelling the connection tasks
                # tears them down immediately.
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True))
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                self._loop = None

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - best effort
                pass
        try:
            await _serve_connection(self.dialect, reader, writer)
        except asyncio.CancelledError:
            # Broker stopping: the connection task is being torn down.
            # Swallow the cancellation so asyncio.streams' done-callback
            # does not log it as an unhandled exception.
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass

    def stop(self) -> None:
        """Stop serving and release the port.

        Idempotent, and safe to call on a broker that was never started:
        with no running loop it just closes the listening socket.
        """
        thread, self._thread = self._thread, None
        loop = self._loop
        if thread is not None and loop is not None:
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:  # loop already closed
                pass
            thread.join(timeout=5.0)
        # No-op after a started loop ran (start_server took ownership and
        # closed it); releases the port when start() never ran.
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: serve until interrupted; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.dist.server",
        description="HTTP broker for distributed campaign work queues "
                    "(conditional reads and writes in POST /batch, "
                    "server-side POST /claim and paginated GET /list; "
                    "see docs/distributed.md).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1; use 0.0.0.0 "
                             "to accept remote workers)")
    parser.add_argument("--port", type=int, default=8123,
                        help="TCP port (default 8123; 0 picks a free port)")
    parser.add_argument("--data-dir", default=None,
                        help="persist queue state under this directory so "
                             "a broker restart resumes mid-campaign "
                             "(default: in-memory, state dies with the "
                             "process)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request")
    args = parser.parse_args(argv)

    broker = Broker(host=args.host, port=args.port, data_dir=args.data_dir,
                    verbose=args.verbose)
    backing = args.data_dir or "memory (volatile)"
    # The listening line is *program output* (scripts read the URL from
    # it) and stays on stdout; every diagnostic goes through the
    # dialect's structured stderr logger.
    print(f"queue broker listening on {broker.url} (store: {backing})",
          flush=True)
    log = StructLogger("broker")
    try:
        broker.serve_forever()
    except KeyboardInterrupt:
        log.event("shutdown", reason="keyboard-interrupt")
    finally:
        broker.stop()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
