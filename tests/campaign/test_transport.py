"""Transport-contract and transport-edge-case tests.

The queue's pluggability claim is only real if every backend honors the
same storage contract — in particular the conditional-create CAS that all
mutual exclusion rests on — and if the backends' *specific* failure modes
(a broker restart mid-lease, a torn filesystem write, concurrent
in-process claimants) leave the queue consistent.  The contract tests run
over all three transports; the edge-case tests target the backend that
owns each failure mode.
"""

import threading

import pytest

from repro.campaign import SweepSpec
from repro.campaign.dist import (
    FsTransport,
    HttpTransport,
    MemoryTransport,
    TransportError,
    WorkQueue,
    transport_from_address,
)
from repro.campaign.dist.server import Broker
from repro.campaign.dist.transport import etag_of
from repro.campaign.jobs import execute_job


def _spec(**overrides):
    kwargs = dict(name="transport-spec", case="synthetic",
                  base={"rate": 150.0},
                  grid={"workers": [1, 2], "tasks": [4, 8]})
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture(params=["fs", "memory", "http"])
def transport(request, tmp_path):
    if request.param == "fs":
        yield FsTransport(tmp_path / "store")
    elif request.param == "memory":
        yield MemoryTransport()
    else:
        broker = Broker().start()
        try:
            yield HttpTransport(broker.url, retries=2, retry_delay=0.05)
        finally:
            broker.stop()


# -- the storage contract ---------------------------------------------------

def test_get_put_roundtrip_with_content_etag(transport):
    assert transport.get("a/x.json") is None
    tag = transport.put("a/x.json", b'{"v": 1}')
    assert tag == etag_of(b'{"v": 1}')
    assert transport.get("a/x.json") == (b'{"v": 1}', tag)


def test_conditional_create_is_exclusive(transport):
    assert transport.cas("k.json", b"first", if_match=None) is not None
    assert transport.cas("k.json", b"second", if_match=None) is None
    assert transport.get("k.json")[0] == b"first"


def test_cas_update_requires_current_etag(transport):
    tag = transport.put("k.json", b"v1")
    assert transport.cas("k.json", b"v2", if_match="stale") is None
    assert transport.get("k.json")[0] == b"v1"
    new = transport.cas("k.json", b"v2", if_match=tag)
    assert new == etag_of(b"v2")
    assert transport.get("k.json")[0] == b"v2"
    # CAS against a missing key can never succeed with a concrete etag.
    assert transport.cas("missing.json", b"x", if_match=tag) is None


def test_conditional_delete(transport):
    tag = transport.put("k.json", b"v1")
    assert not transport.delete("k.json", if_match="stale")
    assert transport.get("k.json") is not None
    assert transport.delete("k.json", if_match=tag)
    assert transport.get("k.json") is None
    assert not transport.delete("k.json")  # already gone


def test_list_is_sorted_and_prefix_scoped(transport):
    for key in ("s/b.json", "s/a.json", "t/c.json"):
        transport.put(key, b"{}")
    assert transport.list("s/") == ["s/a.json", "s/b.json"]
    assert transport.list("t/") == ["t/c.json"]
    assert transport.list("nope/") == []


def test_list_walks_every_page(transport, monkeypatch):
    """The derived ``list`` is a ``list_page`` walk: shrink the page so
    the walk spans several pages and must reassemble them in order."""
    monkeypatch.setattr("repro.campaign.dist.transport.MAX_LIST_PAGE", 2)
    keys = [f"w/{i}.json" for i in range(5)]
    for key in reversed(keys):
        transport.put(key, b"{}")
    transport.put("x/outside.json", b"{}")
    assert transport.list("w/") == keys


def test_etags_are_content_derived_across_transports(transport):
    """Identical bytes get identical ETags on every backend — the property
    that keeps leases valid across a broker restart."""
    data = b'{"worker": "w0", "expires_at": 99.0}'
    assert transport.put("claims/x.json", data) == etag_of(data)


# -- the primitives ----------------------------------------------------------

def test_get_many_preserves_order_and_absence(transport):
    tag_a = transport.put("b/a.json", b"A")
    tag_c = transport.put("b/c.json", b"C")
    got = transport.get_many(["b/c.json", "b/missing.json", "b/a.json"])
    assert got == [(b"C", tag_c), None, (b"A", tag_a)]
    assert transport.get_many([]) == []


def test_put_many_applies_per_item_conditions_in_order(transport):
    """An all-put ``mutate_many`` batch (what ``enqueue_grid`` sends)
    honors each item's own condition, in order."""
    from repro.campaign.dist.transport import ANY

    tag = transport.put("c/k.json", b"v1")
    outcomes = transport.mutate_many([
        ("put", "c/new.json", b"n", None),      # create: key absent -> wins
        ("put", "c/new.json", b"x", None),      # create: now present -> conflict
        ("put", "c/k.json", b"v2", tag),        # update at the current etag
        ("put", "c/k.json", b"v3", "stale"),    # update at a stale etag
        ("put", "c/any.json", b"a", ANY),       # unconditional
    ])
    assert outcomes[0] == etag_of(b"n")
    assert outcomes[1] is None
    assert outcomes[2] == etag_of(b"v2")
    assert outcomes[3] is None
    assert outcomes[4] == etag_of(b"a")
    assert transport.get("c/new.json")[0] == b"n"
    assert transport.get("c/k.json")[0] == b"v2"


def test_delete_many_is_conditional_per_item(transport):
    """An all-delete ``mutate_many`` batch is conditional per item."""
    tag = transport.put("d/a.json", b"A")
    transport.put("d/b.json", b"B")
    assert transport.mutate_many([
        ("delete", "d/a.json", "stale"),   # condition fails, key survives
        ("delete", "d/b.json", None),      # unconditional
        ("delete", "d/missing.json", None),
        ("delete", "d/a.json", tag),       # right etag now
    ]) == [False, True, False, True]
    assert transport.list("d/") == []


def test_mutate_many_mixes_writes_and_deletes_in_order(transport):
    """The mixed batch honors each op's own condition and applies in
    order — the primitive that lets a finished job settle (result +
    done marker + ticket/claim retirement) in one round trip."""
    from repro.campaign.dist.transport import ANY

    tag = transport.put("m/k.json", b"v1")
    transport.put("m/old.json", b"old")
    outcomes = transport.mutate_many([
        ("put", "m/result.json", b"R", ANY),       # unconditional write
        ("put", "m/done.json", b"{}", None),       # conditional create
        ("put", "m/done.json", b"x", None),        # create again -> conflict
        ("put", "m/k.json", b"v2", tag),           # update at current etag
        ("put", "m/k.json", b"v3", "stale"),       # update at stale etag
        ("delete", "m/old.json", None),            # unconditional delete
        ("delete", "m/k.json", "stale"),           # conditional miss
        ("delete", "m/k.json", etag_of(b"v2")),    # conditional hit
        ("delete", "m/missing.json", None),        # absent key
    ])
    assert outcomes == [etag_of(b"R"), etag_of(b"{}"), None,
                        etag_of(b"v2"), None,
                        True, False, True, False]
    assert transport.get("m/result.json")[0] == b"R"
    assert transport.get("m/done.json")[0] == b"{}"
    assert transport.get("m/old.json") is None
    assert transport.get("m/k.json") is None
    assert transport.mutate_many([]) == []


def test_mutate_many_create_then_delete_same_key_applies_in_order(transport):
    """Ordering within one batch is observable: a create followed by a
    delete of the same key leaves the key absent, and both ops report
    success — proof the batch is not reordered or coalesced."""
    outcomes = transport.mutate_many([
        ("put", "seq/x.json", b"v", None),
        ("delete", "seq/x.json", None),
    ])
    assert outcomes == [etag_of(b"v"), True]
    assert transport.get("seq/x.json") is None


# -- retry backoff -----------------------------------------------------------

def test_backoff_delays_are_jittered_and_capped():
    """Satellite regression: deterministic ``retry_delay * 2**attempt``
    made a whole fleet retry in lockstep after a broker blip.  Delays
    must be drawn from ``[0, min(cap, base * 2**attempt)]`` — spread out
    (full jitter) and never above the cap."""
    transport = HttpTransport("http://127.0.0.1:1", retries=8,
                              retry_delay=0.5, retry_max_delay=2.0)
    for attempt in range(10):
        ceiling = min(2.0, 0.5 * (2 ** attempt))
        samples = [transport._backoff_delay(attempt) for _ in range(200)]
        assert all(0.0 <= s <= ceiling for s in samples)
    # Full jitter actually spreads: for a wide window the samples must
    # not collapse onto one value (the old lockstep behavior).
    spread = [transport._backoff_delay(6) for _ in range(200)]
    assert max(spread) - min(spread) > 0.2
    assert max(spread) <= 2.0  # 0.5 * 2**6 = 32s uncapped — must clamp


def test_request_retries_sleep_jittered_durations(monkeypatch):
    """The retry loop consumes ``_backoff_delay`` (not the raw
    exponential): sleeps against a dead broker stay under the cap."""
    transport = HttpTransport("http://127.0.0.1:1", retries=3,
                              retry_delay=10.0, retry_max_delay=0.25)
    slept = []
    monkeypatch.setattr("repro.campaign.dist.transport.time.sleep",
                        slept.append)
    with pytest.raises(TransportError, match="unreachable"):
        transport.get("k.json")
    assert len(slept) == 3  # one sleep per non-final attempt
    assert all(0.0 <= s <= 0.25 for s in slept)


# -- pagination --------------------------------------------------------------

def test_list_page_of_empty_prefix(transport):
    page, token = transport.list_page("nothing/", 5)
    assert page == []
    assert token is None


def test_list_page_prefix_straddling_page_boundaries(transport):
    """A prefix whose keys span several pages walks out exactly, in
    order, and never leaks neighboring prefixes into any page."""
    wanted = [f"p/{i:02d}.json" for i in range(5)]
    for key in wanted + ["o/x.json", "q/x.json"]:
        transport.put(key, b"{}")
    walked, start_after, pages = [], "", 0
    while True:
        page, token = transport.list_page("p/", 2, start_after=start_after)
        assert len(page) <= 2
        assert all(key.startswith("p/") for key in page)
        walked.extend(page)
        pages += 1
        if token is None:
            break
        start_after = token
    assert walked == wanted
    assert pages >= 3
    assert walked == sorted(walked)


def test_list_page_keys_deleted_between_pages(transport):
    """Keyset continuation: deleting keys between page fetches — behind
    the cursor or just ahead of it — never skips a surviving key."""
    for i in range(6):
        transport.put(f"p/{i}.json", b"{}")
    page1, token = transport.list_page("p/", 2)
    assert page1 == ["p/0.json", "p/1.json"]
    transport.delete("p/0.json")  # behind the cursor
    transport.delete("p/2.json")  # the key the next page would start with
    page2, token = transport.list_page("p/", 2, start_after=token)
    assert page2 == ["p/3.json", "p/4.json"]
    page3, token = transport.list_page("p/", 2, start_after=token)
    assert page3 == ["p/5.json"]
    assert token is None


def test_pagination_semantics_agree_across_transports(tmp_path):
    """Memory, filesystem and broker walk an identical keyspace into the
    identical page/token sequence — the property that lets WorkQueue and
    the cache treat the backends interchangeably."""
    keys = ([f"pending/{i:03d}-job{i}.json" for i in range(7)]
            + ["queue.json", "claims/000-job0.json"])
    stores = [MemoryTransport(), FsTransport(tmp_path / "fs-pages")]
    broker = Broker().start()
    try:
        stores.append(HttpTransport(broker.url, retries=1))
        walks = []
        for store in stores:
            for key in keys:
                store.put(key, b"{}")
            walk, start_after = [], ""
            while True:
                page, token = store.list_page("pending/", 3,
                                              start_after=start_after)
                walk.append((tuple(page), token))
                if token is None:
                    break
                start_after = token
            walks.append(walk)
        assert walks[0] == walks[1] == walks[2]
        assert [key for pages in walks[0] for key in pages[0]] == sorted(
            key for key in keys if key.startswith("pending/"))
    finally:
        broker.stop()


def test_batch_malformed_ops_fail_per_op_not_per_batch():
    """One bad op in a /batch body gets its own 400; the ops around it
    still apply — a batch is many independent conditional ops, not a
    transaction."""
    import json
    import urllib.request

    broker = Broker().start()
    try:
        body = json.dumps({"ops": [
            {"op": "put", "key": "a.json", "data": "e30="},  # {}
            {"op": "frobnicate", "key": "b.json"},
            {"op": "put", "key": "c.json", "data": "not base64!!"},
            {"op": "get", "key": "a.json"},
        ]}).encode()
        request = urllib.request.Request(
            f"{broker.url}/batch", data=body, method="POST")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = json.loads(response.read())
        statuses = [res["status"] for res in payload["results"]]
        assert statuses == [200, 400, 400, 200]
        transport = HttpTransport(broker.url, retries=1)
        assert transport.get("a.json")[0] == b"{}"
        assert transport.get("c.json") is None
    finally:
        broker.stop()


# -- keep-alive connection reuse ---------------------------------------------

def _closing_broker() -> Broker:
    """A broker that closes the TCP connection after *every* response —
    without announcing it (no ``Connection: close`` header), so a pooled
    client discovers the close only when its next request fails.  The
    hook is ``BrokerDialect.force_close``."""
    broker = Broker()
    broker.dialect.force_close = True  # unannounced: client keeps pooling
    return broker


def test_idempotent_requests_survive_stale_pooled_sockets():
    """Satellite regression: with keep-alive pooling, a mid-request drop
    on a *reused* socket must not surface as a hard TransportError —
    idempotent GET/LIST (and all-get /batch probes) retry once on a
    fresh connection.  ``retries=0`` proves the reconnect is the free
    stale-socket retry, not backoff."""
    broker = _closing_broker().start()
    try:
        transport = HttpTransport(broker.url, retries=0, retry_delay=0.0)
        tag = transport.put("k.json", b"v")  # fresh socket; server closes
        for _ in range(3):  # every request now rides a stale pooled socket
            assert transport.get("k.json") == (b"v", tag)
        assert transport.list("") == ["k.json"]
        assert transport.list_page("", 10) == (["k.json"], None)
        assert transport.get_many(["k.json", "nope.json"]) == [
            (b"v", tag), None]
    finally:
        broker.stop()


def test_mutations_on_stale_sockets_use_backoff_retries_only():
    """A write whose response was lost may already have been applied, so
    re-sending it silently would misreport the outcome (a conditional
    PUT would see its own write as a conflict).  Mutations therefore get
    no free stale-socket retry — with ``retries=0`` they surface the
    drop, and with a backoff budget they go through the retry path whose
    semantics the queue already handles (own-write check in claim)."""
    broker = _closing_broker().start()
    try:
        strict = HttpTransport(broker.url, retries=0, retry_delay=0.0)
        strict.put("k.json", b"v1")  # fresh socket; server closes after
        with pytest.raises(TransportError, match="unreachable"):
            strict.put("k.json", b"v2")  # stale socket, no free retry
        retrying = HttpTransport(broker.url, retries=2, retry_delay=0.0)
        retrying.get("k.json")  # pool + stale a connection
        assert retrying.put("k.json", b"v3") == etag_of(b"v3")  # via backoff
        assert retrying.get("k.json")[0] == b"v3"
    finally:
        broker.stop()


def test_first_contact_failures_still_raise_after_retries():
    """The stale-socket retry must not mask a genuinely dead broker: a
    connection that fails on *first* use gets no free retry."""
    transport = HttpTransport("http://127.0.0.1:1", retries=0,
                              retry_delay=0.0)
    with pytest.raises(TransportError, match="unreachable"):
        transport.get("k.json")


# -- CAS conflict on simultaneous claim -------------------------------------

def test_simultaneous_claims_have_exactly_one_winner(transport):
    """N threads hammering claim() concurrently: every job is claimed by
    exactly one thread — the conditional-create CAS is the only arbiter,
    so this is the direct test of the primitive the fleet relies on."""
    jobs = _spec().expand()
    queue = WorkQueue(transport=transport, lease_seconds=30.0)
    for job in jobs:
        queue.enqueue(job)

    claimed, lock = [], threading.Lock()

    def worker(wid):
        # Each thread gets its own WorkQueue over the shared store, like
        # separate processes would.
        q = WorkQueue(transport=transport)
        while True:
            item = q.claim(f"w{wid}")
            if item is None:
                break
            with lock:
                claimed.append(item)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)

    assert len(claimed) == len(jobs)
    assert len({item.key for item in claimed}) == len(jobs)
    assert queue.counts()["claimed"] == len(jobs)


def test_memory_transport_lease_expiry_requeues():
    """The in-process transport honors the full lease state machine: an
    abandoned claim expires and requeues with its attempt count bumped."""
    clock = [1000.0]
    queue = WorkQueue(transport=MemoryTransport(), lease_seconds=10.0,
                      clock=lambda: clock[0])
    job = _spec().expand()[0]
    queue.enqueue(job)
    assert queue.claim("doomed") is not None
    assert queue.requeue_expired() == []  # live lease
    clock[0] += 11.0
    assert queue.requeue_expired() == [job.job_id]
    retried = queue.claim("rescuer")
    assert retried is not None and retried.attempts == 1
    queue.complete(retried, execute_job(retried.job))
    assert queue.drained()


# -- broker lifecycle --------------------------------------------------------

def test_broker_restart_mid_lease_preserves_queue_state(tmp_path):
    """A disk-backed broker can die and come back mid-campaign: the held
    lease survives (content-derived ETags restore identically), the
    holder's heartbeat and completion still apply, and untouched tickets
    remain claimable."""
    data_dir = tmp_path / "broker-state"
    broker = Broker(data_dir=data_dir).start()
    transport = HttpTransport(broker.url, retries=3, retry_delay=0.1)
    queue = WorkQueue(transport=transport, lease_seconds=60.0)
    jobs = _spec().expand()
    queue.enqueue_grid(jobs)
    held = queue.claim("survivor")
    assert held is not None

    port = broker.port
    broker.stop()
    restarted = Broker(port=port, data_dir=data_dir).start()
    try:
        # Same URL, same state: the transport reconnects transparently.
        assert queue.counts()["claimed"] == 1
        assert queue.heartbeat(held)  # the lease etag survived the restart
        queue.complete(held, execute_job(held.job))
        rest = []
        while True:
            item = queue.claim("survivor")
            if item is None:
                break
            queue.complete(item, execute_job(item.job))
            rest.append(item.key)
        assert len(rest) == len(jobs) - 1
        assert queue.drained()
        assert queue.counts()["done"] == len(jobs)
        assert all(item.attempts == 0 for item in [held] + []), \
            "restart must not consume retry attempts"
    finally:
        restarted.stop()


def test_unreachable_broker_raises_transport_error_after_retries():
    transport = HttpTransport("http://127.0.0.1:1", retries=1,
                              retry_delay=0.01)
    with pytest.raises(TransportError, match="unreachable"):
        transport.get("queue.json")


def test_fs_transport_wraps_unwritable_locations(tmp_path):
    """An unwritable queue location is the filesystem analogue of an
    unreachable broker: it must raise TransportError, not leak OSError."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file, not directory", encoding="utf-8")
    with pytest.raises(TransportError, match="cannot create"):
        FsTransport(blocker / "q")


def test_worker_cli_exits_cleanly_on_unwritable_queue_dir(tmp_path, capsys):
    """The documented exit-code contract covers filesystem queues too:
    'queue directory unwritable' is exit 3 + one line, never a traceback."""
    from repro.campaign.dist import worker as worker_cli

    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file, not directory", encoding="utf-8")
    code = worker_cli.main(["--queue", str(blocker / "q"), "--quiet"])
    assert code == worker_cli.EXIT_TRANSPORT_ERROR == 3
    err = capsys.readouterr().err
    assert "cannot reach queue" in err
    assert "Traceback" not in err


def test_worker_cli_exits_cleanly_on_unreachable_broker(capsys):
    """Satellite contract: a worker pointed at a dead broker exits with
    code 3 and a one-line message, not a traceback."""
    from repro.campaign.dist import worker as worker_cli

    code = worker_cli.main(["--queue", "http://127.0.0.1:1",
                            "--transport-retries", "0", "--quiet"])
    assert code == worker_cli.EXIT_TRANSPORT_ERROR == 3
    err = capsys.readouterr().err
    assert "cannot reach queue" in err
    assert "Traceback" not in err


def test_worker_cli_rejects_malformed_broker_urls_with_exit_2(tmp_path,
                                                              capsys):
    """A broker URL that does not parse — a port that is not a number, or
    a comma-separated list of brokers — is a bad command line: exit 2
    and one stderr line naming the flag, never a traceback."""
    from repro.campaign.dist import worker as worker_cli

    for argv, flag in (
            (["--queue", "http://127.0.0.1:notaport"], "--queue"),
            (["--queue", "http://b1:8123,http://b2:8123"], "--queue"),
            (["--queue", str(tmp_path / "q"),
              "--cache", "http://127.0.0.1:notaport"], "--cache")):
        code = worker_cli.main(argv + ["--quiet"])
        assert code == worker_cli.EXIT_USAGE == 2
        err = capsys.readouterr().err
        assert err.startswith(f"worker: bad {flag} address: ")
        assert err.count("\n") == 1


def test_transport_from_address_dispatch(tmp_path):
    assert isinstance(transport_from_address(tmp_path / "q"), FsTransport)
    http = transport_from_address("http://example.invalid:9")
    assert isinstance(http, HttpTransport)
    assert http.address == "http://example.invalid:9"
