"""Broker event-loop and ``POST /claim`` regression tests.

Covers the wire dialect, the keep-alive desync hardening (malformed
``Content-Length``, garbage request lines, bodies on GET/DELETE), the
``Broker.stop()`` lifecycle guards, and the ``POST /claim`` contract —
exactly-one-winner, drained → 204, corrupt bookkeeping, a 404 surfacing
as a transport error, and fake clocks riding the wire.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import SweepSpec
from repro.campaign.dist import HttpTransport, WorkQueue
from repro.campaign.dist.server import Broker
from repro.campaign.dist.transport import TransportError
from repro.campaign.jobs import execute_job
from repro.campaign.obs import series_value


def _spec(**overrides):
    kwargs = dict(name="core-spec", case="synthetic",
                  base={"rate": 150.0},
                  grid={"workers": [1, 2], "tasks": [4, 8]})
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture
def broker():
    b = Broker().start()
    try:
        yield b
    finally:
        b.stop()


def _read_responses(stream, count):
    """Parse ``count`` HTTP responses off a raw socket file object."""
    out = []
    for _ in range(count):
        status_line = stream.readline()
        if not status_line:
            break
        headers = {}
        while True:
            line = stream.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        body = stream.read(length) if length else b""
        out.append((int(status_line.split()[1]), headers, body))
    return out


# -- wire dialect smoke ------------------------------------------------------

def test_wire_dialect_smoke(broker):
    transport = HttpTransport(broker.url, retries=1, retry_delay=0.05)
    assert transport.get("x.json") is None
    tag = transport.put("x.json", b"v1")
    assert transport.get("x.json") == (b"v1", tag)
    assert transport.cas("x.json", b"v2", if_match=None) is None
    assert transport.cas("x.json", b"v2", if_match=tag) is not None
    assert transport.list("") == ["x.json"]
    assert transport.list_page("", 10) == (["x.json"], None)
    assert transport.get_many(["x.json", "nope.json"]) == [
        (b"v2", transport.get("x.json")[1]), None]
    assert transport.delete("x.json")
    with urllib.request.urlopen(f"{broker.url}/healthz",
                                timeout=5.0) as response:
        assert json.loads(response.read()) == {"ok": True}


def test_unknown_method_and_path(broker):
    # Keys are reachable only inside POST /batch: a per-key path is 404.
    for path in ("/nope", "/k/x.json"):
        request = urllib.request.Request(f"{broker.url}{path}", method="GET")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=5.0)
        assert caught.value.code == 404, path


def test_point_ops_ride_the_batch_route(broker):
    """get/put/cas/delete are one-op batches: a live broker sees nothing
    but ``POST /batch`` for them."""
    transport = HttpTransport(broker.url, retries=0)
    try:
        assert transport.get("p.json") is None
        tag = transport.put("p.json", b"v1")
        assert transport.get("p.json") == (b"v1", tag)
        assert transport.cas("p.json", b"v2", if_match=tag) is not None
        assert transport.delete("p.json")
    finally:
        transport.close()
    series = broker.dialect.registry.snapshot()["counters"][
        "broker_requests_total"]
    assert {(entry["labels"]["route"], entry["labels"]["method"])
            for entry in series} == {("/batch", "POST")}
    assert sum(entry["value"] for entry in series) == 5.0


# -- keep-alive desync hardening ---------------------------------------------

def test_malformed_content_length_gets_400_and_announced_close(broker):
    """Satellite regression: ``Content-Length: banana`` used to raise an
    unhandled ValueError — a 500 with the body bytes still in the stream,
    desyncing every later request on the connection.  The broker must
    answer 400, announce ``Connection: close``, and actually close."""
    with socket.create_connection((broker.host, broker.port),
                                  timeout=5.0) as sock:
        sock.sendall(b"POST /batch HTTP/1.1\r\n"
                     b"Host: h\r\n"
                     b"Content-Length: banana\r\n\r\n")
        stream = sock.makefile("rb")
        responses = _read_responses(stream, 1)
        assert len(responses) == 1
        status, headers, _ = responses[0]
        assert status == 400
        assert headers.get("connection") == "close"
        assert stream.read() == b""  # server closed; no stray bytes
    # The broker is not wedged: fresh connections serve normally.
    transport = HttpTransport(broker.url, retries=0)
    assert transport.get("x.json") is None


def test_negative_content_length_gets_400_and_announced_close(broker):
    with socket.create_connection((broker.host, broker.port),
                                  timeout=5.0) as sock:
        sock.sendall(b"POST /batch HTTP/1.1\r\n"
                     b"Host: h\r\n"
                     b"Content-Length: -7\r\n\r\n")
        stream = sock.makefile("rb")
        responses = _read_responses(stream, 1)
        assert [r[0] for r in responses] == [400]
        assert responses[0][1].get("connection") == "close"
        assert stream.read() == b""


def test_garbage_request_line_gets_400_not_a_hang(broker):
    """An unparseable request line gets a real ``HTTP/1.1 400`` status
    line and an announced close — and the connection actually closes
    instead of wedging."""
    with socket.create_connection((broker.host, broker.port),
                                  timeout=5.0) as sock:
        sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
        data = sock.makefile("rb").read()  # returns only once closed
    head = data.partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert head[0] == b"HTTP/1.1 400 Bad Request"
    assert b"Connection: close" in head[1:]


def test_bodies_on_get_and_delete_do_not_desync_keepalive(broker):
    """Satellite regression: GET/DELETE handlers never drained request
    bodies, so a client that sent one desynced the keep-alive stream —
    the leftover bytes parsed as the next request line.  All three
    pipelined requests below must parse and answer in order (DELETE is
    not a route: 501, with its body drained all the same)."""
    transport = HttpTransport(broker.url, retries=0)
    transport.put("k.json", b"v")
    with socket.create_connection((broker.host, broker.port),
                                  timeout=5.0) as sock:
        sock.sendall(
            b"GET /list?prefix=k HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 7\r\n\r\npayload"
            b"DELETE /k.json HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 5\r\n\r\nhello"
            b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n")
        stream = sock.makefile("rb")
        responses = _read_responses(stream, 3)
        assert [r[0] for r in responses] == [200, 501, 200]
        assert json.loads(responses[0][2])["keys"] == ["k.json"]
        assert json.loads(responses[2][2]) == {"ok": True}


def test_post_to_unknown_path_drains_body_then_keeps_alive(broker):
    with socket.create_connection((broker.host, broker.port),
                                  timeout=5.0) as sock:
        sock.sendall(
            b"POST /not-an-endpoint HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 9\r\n\r\nsome body"
            b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n")
        stream = sock.makefile("rb")
        responses = _read_responses(stream, 2)
        assert [r[0] for r in responses] == [404, 200]


# -- Broker lifecycle --------------------------------------------------------

def test_stop_before_start_does_not_deadlock():
    """``stop()`` is documented idempotent and safe before ``start()``:
    run it on a helper thread and require it to finish."""
    broker = Broker()
    finished = []

    def stopper():
        broker.stop()
        finished.append(True)

    thread = threading.Thread(target=stopper, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive() and finished, \
        "stop() before start() must return, not deadlock"


def test_stop_is_idempotent_after_start():
    broker = Broker().start()
    transport = HttpTransport(broker.url, retries=0)
    transport.put("k.json", b"v")
    broker.stop()
    broker.stop()  # second stop must be a no-op, not a hang or a raise


# -- POST /claim contract ----------------------------------------------------

def test_claim_endpoint_wire_format(broker):
    """The raw wire contract: 200 + JSON outcome document on a win,
    204 with no body when drained."""
    transport = HttpTransport(broker.url, retries=1, retry_delay=0.05)
    queue = WorkQueue(transport=transport, lease_seconds=30.0)
    job = _spec().expand()[0]
    queue.enqueue(job)
    request = urllib.request.Request(
        f"{broker.url}/claim?prefix=pending/&worker=wz", data=b"",
        method="POST")
    with urllib.request.urlopen(request, timeout=5.0) as response:
        assert response.status == 200
        outcome = json.loads(response.read())
    assert set(outcome) == {"key", "etag", "attempts", "record", "lease"}
    assert outcome["key"] == job.job_id
    assert outcome["attempts"] == 0
    assert outcome["record"]["job"]["case"] == "synthetic"
    assert outcome["lease"]["worker"] == "wz"
    assert outcome["etag"]
    # Everything claimable is claimed: the next pass reports drained.
    with urllib.request.urlopen(request, timeout=5.0) as response:
        assert response.status == 204
        assert response.read() == b""


def test_claim_endpoint_validates_parameters(broker):
    for query in ("prefix=results/", "now=banana", "lease=banana",
                  "lease=-5", "lease=0", "now=inf"):
        request = urllib.request.Request(
            f"{broker.url}/claim?{query}", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=5.0)
        assert caught.value.code == 400, query


def test_claim_endpoint_exactly_one_winner_under_concurrency(broker):
    """Six threads hammering claim() against one broker: every job is
    claimed exactly once, all through the server-side fast path."""
    jobs = _spec().expand()
    setup = WorkQueue(
        transport=HttpTransport(broker.url, retries=2, retry_delay=0.05),
        lease_seconds=30.0)
    for job in jobs:
        setup.enqueue(job)

    claimed, lock = [], threading.Lock()

    def worker(wid):
        queue = WorkQueue(transport=HttpTransport(
            broker.url, retries=2, retry_delay=0.05))
        while True:
            item = queue.claim(f"w{wid}")
            if item is None:
                break
            with lock:
                claimed.append(item)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)

    assert len(claimed) == len(jobs)
    assert len({item.key for item in claimed}) == len(jobs)
    assert setup.counts()["claimed"] == len(jobs)
    # Every win came through the server-side fast path.
    assert series_value(broker.dialect.registry.snapshot(), "counters",
                        "broker_claims_total",
                        outcome="claimed") == len(jobs)


def test_claim_endpoint_corrupt_ticket_claims_at_attempt_zero(broker):
    """A garbage pending ticket is requeueable bookkeeping, not poison:
    the server-side scan claims it with ``attempts == 0``."""
    transport = HttpTransport(broker.url, retries=1, retry_delay=0.05)
    queue = WorkQueue(transport=transport, lease_seconds=30.0)
    job = _spec().expand()[0]
    name = queue.enqueue(job)
    transport.put(f"pending/{name}.json", b"\x00 not json \x00")
    item = queue.claim("w0")
    assert item is not None
    assert item.key == job.job_id
    assert item.attempts == 0


def test_claim_endpoint_buries_corrupt_job_record_and_scans_on(broker):
    """A corrupt immutable job record dead-letters server-side and the
    scan continues to the next ticket — one request still wins a job."""
    transport = HttpTransport(broker.url, retries=1, retry_delay=0.05)
    queue = WorkQueue(transport=transport, lease_seconds=30.0)
    jobs = _spec().expand()[:2]
    keys = [queue.enqueue(job) for job in jobs]
    first_key = min(keys)  # the scan visits tickets in sorted order
    transport.put(f"jobs/{first_key}.json", b"garbage")
    item = queue.claim("w0")
    assert item is not None
    assert item.key == max(keys)
    assert first_key in queue.dead()
    assert "corrupt job record" in queue.dead()[first_key]["error"]


def test_claim_404_is_a_transport_error(broker):
    """Every broker serves ``POST /claim`` and ``GET /stats``, so a 404
    means the URL is not a broker: it must raise, never silently fall
    back to a client-side scan or an empty dashboard."""
    transport = HttpTransport(broker.url + "/not-a-broker", retries=0)
    with pytest.raises(TransportError, match="CLAIM"):
        transport.claim_first()
    with pytest.raises(TransportError, match="STATS"):
        transport.stats()


def test_fake_clock_and_lease_ride_the_claim_endpoint(broker):
    """``now`` and ``lease`` travel with the request, so lease expiry
    arithmetic over the wire matches the client-side scan exactly —
    including under an injected fake clock."""
    clock = [1000.0]
    queue = WorkQueue(
        transport=HttpTransport(broker.url, retries=1, retry_delay=0.05),
        lease_seconds=10.0, clock=lambda: clock[0])
    job = _spec().expand()[0]
    queue.enqueue(job)
    assert queue.claim("doomed") is not None
    assert queue.requeue_expired() == []  # lease live at fake-now
    clock[0] += 11.0
    assert queue.requeue_expired() == [job.job_id]
    retried = queue.claim("rescuer")
    assert retried is not None and retried.attempts == 1
    queue.complete(retried, execute_job(retried.job))
    assert queue.drained()
