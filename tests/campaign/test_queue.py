"""Unit and crash-consistency tests for the durable work queue.

The queue's contract is that *no* state transition can lose a job: worker
crashes surface as expired leases and requeue, truncated/garbage JSON
bookkeeping reads as "requeueable", and only exhausting ``max_attempts``
(or a corrupt immutable job record, which leaves nothing to execute)
parks a job in the dead-letter state.  Time is injected so lease expiry
is tested without sleeping.

Every test here runs over the filesystem, in-memory and HTTP-broker
transports — because the queue's whole claim to a *pluggable* storage seam
is that these properties are transport-independent — and again over a
:class:`SplitStore` of two in-memory stores and of two brokers, where no
single store sees the whole queue.  Corruption is injected through the
transport (``transport.put`` of garbage bytes), which reaches every
backend identically.
"""

import heapq
import itertools
import zlib

import pytest

from repro.campaign import SweepSpec
from repro.campaign.dist import (
    FsTransport,
    HttpTransport,
    MemoryTransport,
    QueueTransport,
    WorkQueue,
)
from repro.campaign.dist.server import Broker
from repro.campaign.dist.stats import queue_depths
from repro.campaign.jobs import JobResult, execute_job
from repro.campaign.jsonio import json_dumps_bytes

TRANSPORTS = ("fs", "memory", "http", "sharded-memory", "sharded-http")


def _spec(**overrides):
    kwargs = dict(name="queue-spec", case="synthetic", base={"rate": 150.0},
                  grid={"workers": [1, 2], "tasks": [4, 8]})
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def _jobs(spec=None):
    return (spec or _spec()).expand()


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SplitStore(QueueTransport):
    """A store split across child transports by a hash of each key.

    A job's documents land on different children, and the store offers no
    server-side claim, so :meth:`WorkQueue.claim` runs its client-side
    scan over the merged listing.  The queue may rely only on per-key
    conditional writes and sorted listings, never on one store holding
    every key.
    """

    def __init__(self, children):
        self.children = list(children)

    def _child_of(self, key):
        return zlib.crc32(key.encode("utf-8")) % len(self.children)

    def get_many(self, keys):
        out = []
        for child, run in itertools.groupby(keys, key=self._child_of):
            out.extend(self.children[child].get_many(list(run)))
        return out

    def mutate_many(self, ops):
        # Consecutive ops on one child ride one batch, so the input order
        # of the whole batch is kept.
        out = []
        for child, run in itertools.groupby(
                ops, key=lambda op: self._child_of(op[1])):
            out.extend(self.children[child].mutate_many(list(run)))
        return out

    def list_page(self, prefix, max_keys, start_after=""):
        # A key a child did not ship sorts after that child's last shipped
        # key, hence after the merged page's last key: a safe keyset token.
        pages, more = [], False
        for child in self.children:
            page, token = child.list_page(prefix, max_keys,
                                          start_after=start_after)
            pages.append(page)
            more = more or token is not None
        merged = list(heapq.merge(*pages))
        page = merged[:max_keys]
        if page and (more or len(merged) > max_keys):
            return page, page[-1]
        return page, None


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture(params=TRANSPORTS)
def make_transport(request, tmp_path):
    """Factory yielding transports that all address the *same* store, so
    tests can model a second process opening an existing queue.  The
    sharded params return a fresh :class:`SplitStore` per call over the
    same two children."""
    if request.param == "fs":
        yield lambda: FsTransport(tmp_path / "q")
    elif request.param == "memory":
        shared = MemoryTransport()
        yield lambda: shared
    elif request.param == "sharded-memory":
        children = [MemoryTransport(), MemoryTransport()]
        yield lambda: SplitStore(children)
    elif request.param == "sharded-http":
        brokers = [Broker().start(), Broker().start()]
        try:
            yield lambda: SplitStore(
                [HttpTransport(b.url, retries=2, retry_delay=0.05)
                 for b in brokers])
        finally:
            for b in brokers:
                b.stop()
    else:
        broker = Broker().start()
        try:
            yield lambda: HttpTransport(broker.url, retries=2,
                                        retry_delay=0.05)
        finally:
            broker.stop()


@pytest.fixture
def queue(make_transport, clock):
    return WorkQueue(transport=make_transport(), lease_seconds=10.0,
                     max_attempts=3, clock=clock)


# -- lifecycle --------------------------------------------------------------

def test_enqueue_claim_complete_lifecycle(queue):
    jobs = _jobs()
    for job in jobs:
        queue.enqueue(job)
    assert queue.counts() == {"pending": 4, "claimed": 0, "done": 0, "dead": 0}
    assert not queue.drained()

    seen = []
    while True:
        item = queue.claim("w0")
        if item is None:
            break
        result = execute_job(item.job)
        queue.complete(item, result)
        seen.append(item.key)
    assert len(seen) == 4
    assert queue.drained()
    assert queue.counts() == {"pending": 0, "claimed": 0, "done": 4, "dead": 0}
    results = queue.results()
    assert set(results) == {job.job_id for job in jobs}
    assert all(isinstance(r, JobResult) and r.ok for r in results.values())


def test_enqueue_is_idempotent(queue):
    job = _jobs()[0]
    first = queue.enqueue(job)
    again = queue.enqueue(job)
    assert first == again == job.job_id
    assert queue.counts()["pending"] == 1
    item = queue.claim("w0")
    queue.complete(item, execute_job(item.job))
    assert queue.enqueue(job) == first  # done: no new ticket
    assert queue.counts()["pending"] == 0


def test_documents_are_named_by_job_key_and_claimed_in_grid_order(queue):
    """Every queue document is ``<state>/<job_id>.json``: a drained grid
    leaves exactly its job records, results and done markers beside the
    queue config, and claims follow grid order."""
    jobs = _jobs()
    keys = [job.job_id for job in jobs]
    assert queue.enqueue_grid(jobs) == keys
    claimed = []
    while True:
        item = queue.claim("w0")
        if item is None:
            break
        claimed.append(item.key)
        queue.complete(item, execute_job(item.job))
    assert claimed == keys
    assert queue.transport.list("") == sorted(
        ["queue.json"] + [f"{state}/{key}.json"
                          for state in ("jobs", "results", "done")
                          for key in keys])


def test_claim_is_mutually_exclusive(queue):
    jobs = _jobs()
    for job in jobs:
        queue.enqueue(job)
    items = [queue.claim(f"w{i}") for i in range(6)]
    claimed = [item for item in items if item is not None]
    assert len(claimed) == 4
    assert len({item.key for item in claimed}) == 4  # never the same job twice


def test_workload_error_results_settle_as_completed(queue):
    spec = _spec(grid={"workers": [0]})  # workers=0 raises inside the case
    job = spec.expand()[0]
    queue.enqueue(job)
    item = queue.claim("w0")
    result = execute_job(item.job)
    assert not result.ok
    queue.complete(item, result)
    assert queue.drained()
    assert queue.counts()["dead"] == 0  # deterministic failure, no retry
    assert not queue.results()[job.job_id].ok


# -- leases, retries, dead-letter ------------------------------------------

def test_expired_lease_is_requeued_with_attempt_count(queue, clock):
    job = _jobs()[0]
    queue.enqueue(job)
    item = queue.claim("w0")
    assert queue.requeue_expired() == []  # live lease

    clock.advance(11.0)  # beyond lease_seconds
    assert queue.requeue_expired() == [job.job_id]
    assert queue.counts() == {"pending": 1, "claimed": 0, "done": 0, "dead": 0}
    retried = queue.claim("w1")
    assert retried.key == item.key
    assert retried.attempts == 1


def test_heartbeat_keeps_the_lease_alive(queue, clock):
    job = _jobs()[0]
    queue.enqueue(job)
    item = queue.claim("w0")
    clock.advance(8.0)
    assert queue.heartbeat(item)
    clock.advance(8.0)  # 16s since claim, 8s since heartbeat
    assert queue.requeue_expired() == []
    assert queue.counts()["claimed"] == 1


def test_heartbeat_cannot_resurrect_a_reclaimed_lease(queue, clock):
    """Once the scavenger released an expired claim, the old holder's
    heartbeat must fail — a CAS on a deleted document — rather than
    blocking the requeued ticket forever (the bug an unconditional lease
    write would reintroduce)."""
    job = _jobs()[0]
    queue.enqueue(job)
    stale = queue.claim("slow-worker")
    clock.advance(11.0)
    assert queue.requeue_expired() == [job.job_id]
    assert not queue.heartbeat(stale)  # claim document is gone
    fresh = queue.claim("fresh-worker")
    assert fresh is not None and fresh.attempts == 1
    assert not queue.heartbeat(stale)  # now it is someone else's claim
    assert queue.heartbeat(fresh)


def test_max_attempts_dead_letters(queue, clock):
    job = _jobs()[0]
    queue.enqueue(job)
    for _attempt in range(queue.max_attempts - 1):
        assert queue.claim("w0") is not None
        clock.advance(11.0)
        queue.requeue_expired()
    assert queue.claim("w0") is not None
    clock.advance(11.0)
    assert queue.requeue_expired() == []  # third expiry buries it
    assert queue.counts()["dead"] == 1
    assert queue.claim("w0") is None
    record = queue.dead()[job.job_id]
    assert record["attempts"] == queue.max_attempts
    assert "lease expired" in record["error"]
    assert record["job"]["params"] == dict(job.params)


def test_fail_requeues_then_dead_letters(queue):
    job = _jobs()[0]
    queue.enqueue(job)
    assert queue.fail(queue.claim("w0"), "no GPU") == "requeued"
    assert queue.fail(queue.claim("w0"), "no GPU") == "requeued"
    assert queue.fail(queue.claim("w0"), "no GPU") == "dead"
    assert queue.dead()[job.job_id]["error"] == "no GPU"
    assert queue.drained()


def test_retry_dead_revives_buried_jobs(queue):
    """Dead-lettering must not strand a persistent queue forever: after
    the infrastructure failure is fixed, retry_dead() restores the job
    (with a fresh attempt budget) while enqueue alone refuses to."""
    job = _jobs()[0]
    queue.enqueue(job)
    for _ in range(queue.max_attempts):
        queue.fail(queue.claim("w0"), "transient breakage")
    assert queue.counts()["dead"] == 1
    queue.enqueue(job)  # replaying the grid does NOT revive buried jobs
    assert queue.counts()["pending"] == 0

    assert queue.retry_dead() == [job.job_id]
    assert queue.counts() == {"pending": 1, "claimed": 0, "done": 0, "dead": 0}
    item = queue.claim("w0")
    assert item.attempts == 0  # fresh attempt budget
    queue.complete(item, execute_job(item.job))
    assert queue.results()[job.job_id].ok
    assert queue.retry_dead() == []  # idempotent on an empty dead set


class _CountingTransport(MemoryTransport):
    """Counts ``mutate_many`` calls: recovery paths must batch writes."""

    def __init__(self):
        super().__init__()
        self.mutations = 0

    def mutate_many(self, ops):
        self.mutations += 1
        return super().mutate_many(ops)


def test_requeue_expired_releases_each_claim_in_one_batch(clock):
    """Releasing an expired claim is one ``mutate_many`` — ticket put,
    then the ETag-guarded claim delete — not a round trip per document."""
    transport = _CountingTransport()
    queue = WorkQueue(transport=transport, lease_seconds=10.0, clock=clock)
    jobs = _jobs()
    queue.enqueue_grid(jobs)
    for _ in jobs:
        assert queue.claim("doomed") is not None
    clock.advance(11.0)
    transport.mutations = 0
    assert sorted(queue.requeue_expired()) == sorted(
        job.job_id for job in jobs)
    assert transport.mutations == len(jobs)
    assert queue.counts()["pending"] == len(jobs)


def test_retry_dead_revives_every_key_in_one_batch():
    """``retry_dead`` writes every fresh ticket, then every dead-record
    delete, in a single ``mutate_many`` however many keys it revives."""
    transport = _CountingTransport()
    queue = WorkQueue(transport=transport, max_attempts=1)
    jobs = _jobs()
    queue.enqueue_grid(jobs)
    for _ in jobs:
        assert queue.fail(queue.claim("w0"), "breakage") == "dead"
    transport.mutations = 0
    assert sorted(queue.retry_dead()) == sorted(job.job_id for job in jobs)
    assert transport.mutations == 1
    assert queue.counts() == {"pending": len(jobs), "claimed": 0,
                              "done": 0, "dead": 0}


def test_completion_after_expiry_requeue_is_harmless(queue, clock):
    """The double-execution race: worker A's lease expires, B re-runs the
    job, then A (alive all along, just slow) completes too.  Results are
    content-derived, so both completions store identical records."""
    job = _jobs()[0]
    queue.enqueue(job)
    item_a = queue.claim("wA")
    clock.advance(11.0)
    queue.requeue_expired()
    item_b = queue.claim("wB")
    result = execute_job(job)
    queue.complete(item_b, result)
    queue.complete(item_a, result)  # late completion: no error, no dup state
    assert queue.drained()
    assert queue.counts()["dead"] == 0
    assert queue.results()[job.job_id].metrics == result.metrics


def test_late_completion_cannot_release_the_new_claim(queue, clock):
    """Sharper than harmless: worker A's stale claim etag must not delete
    worker B's *live* claim while B is still executing a different
    attempt — A only retires bookkeeping its own etag still matches."""
    job = _jobs()[0]
    queue.enqueue(job)
    item_a = queue.claim("wA")
    clock.advance(11.0)
    queue.requeue_expired()
    item_b = queue.claim("wB")
    assert item_b is not None
    queue.complete(item_a, execute_job(job))  # A finishes late
    # B's lease still stands (the result exists, so B's job is moot, but
    # the claim release must come from B or the scavenger — not from A).
    assert queue.heartbeat(item_b)
    queue.complete(item_b, execute_job(job))
    assert queue.drained()


def test_claim_adopts_its_own_lost_response_write(queue, clock):
    """An HTTP retry can land the claim document and then see its second
    attempt rejected (the first response was lost): when the stored bytes
    are exactly the claimer's own payload, the claim is adopted instead
    of skipped — skipping would strand the worker's own lease and burn a
    retry attempt the job never used."""
    job = _jobs()[0]
    queue.enqueue(job)
    # Simulate the lost response: the claim-create lands in the store but
    # the caller sees a conflict (what an HTTP retry observes after its
    # first attempt's response vanished).
    real_cas = queue.transport.cas
    dropped = []

    def lossy_cas(key, data, if_match=None):
        tag = real_cas(key, data, if_match=if_match)
        if (key.startswith("claims/") and if_match is None
                and tag is not None and not dropped):
            dropped.append(key)
            return None  # the write landed; the response did not
        return tag

    # The own-write check lives in the *client-side* scan: over a broker
    # with server-side claim the CAS is local and exact, so withdraw the
    # transport's claim capability to pin the scan fs/memory transports
    # always run.
    queue.transport.claim_first = None
    queue.transport.cas = lossy_cas
    item = queue.claim("w0")
    assert dropped, "the simulated lost response never triggered"
    assert item is not None and item.key == job.job_id
    assert item.etag  # adopted, heartbeat/settle work as usual
    assert queue.heartbeat(item)
    queue.complete(item, execute_job(item.job))
    assert queue.drained()
    assert queue.counts()["dead"] == 0  # no retry attempt was burned
    # A genuinely foreign claim is still not stolen.
    name2 = queue.enqueue(_jobs()[1])
    queue.transport.put(f"claims/{name2}.json", json_dumps_bytes(
        queue._lease_payload("someone-else", 0, clock())))
    assert queue.claim("w0") is None


def test_torn_queue_config_is_healed(make_transport):
    """A garbage queue.json (torn create, external corruption) must be
    healed with an atomic rewrite — not silently papered over with each
    participant's own constructor defaults, which would let orchestrator
    and workers run divergent lease policies."""
    first = WorkQueue(transport=make_transport(), lease_seconds=5.0,
                      max_attempts=7)
    first.transport.put("queue.json", b"not json at all")
    healer = WorkQueue(transport=make_transport(), lease_seconds=9.0,
                       max_attempts=2)
    assert healer.lease_seconds == 9.0  # the healer's policy won
    # ... and was persisted: a later default open adopts it rather than
    # falling back to its own defaults.
    adopted = WorkQueue(transport=make_transport())
    assert adopted.lease_seconds == 9.0
    assert adopted.max_attempts == 2


def test_fresh_claim_is_never_stealable(queue, clock):
    """The claim document *is* the lease, created in the same atomic
    operation — so there is no claim-without-lease window for a racing
    scavenger to steal, even for a job that sat pending a long time."""
    job = _jobs()[0]
    queue.enqueue(job)
    clock.advance(50.0)  # pending far longer than lease_seconds
    assert queue.claim("w0") is not None
    assert queue.requeue_expired() == []  # lease runs from the claim
    assert queue.counts()["claimed"] == 1


# -- crash consistency ------------------------------------------------------

def test_garbage_ticket_is_claimable_not_fatal(queue):
    """A truncated/garbage pending ticket must not lose the job: the spec
    in jobs/ is intact, so the claim proceeds with attempts reset to 0."""
    job = _jobs()[0]
    name = queue.enqueue(job)
    queue.transport.put(f"pending/{name}.json", b'{"attempts": 2')  # torn
    item = queue.claim("w0")
    assert item is not None
    assert item.key == job.job_id
    assert item.attempts == 0
    queue.complete(item, execute_job(item.job))
    assert queue.drained()


def test_garbage_claim_reads_as_expired(queue, clock):
    job = _jobs()[0]
    name = queue.enqueue(job)
    assert queue.claim("w0") is not None
    queue.transport.put(f"claims/{name}.json", b"not json at all")
    # No clock advance needed: an unreadable claim document counts as
    # expired immediately (claim writes are atomic, so garbage means
    # external corruption, not a mid-write heartbeat).
    assert queue.requeue_expired() == [job.job_id]
    assert queue.claim("w1").attempts == 1


def test_crashed_settle_is_healed_from_the_result(queue, clock):
    """A worker that persisted the result and crashed before retiring its
    ticket/claim loses no work: the scavenger retires the claim against
    the result record instead of re-running the job."""
    job = _jobs()[0]
    name = queue.enqueue(job)
    item = queue.claim("w0")
    # Simulate the crash window inside complete(): result written, ticket
    # and claim still standing.
    queue.transport.put(f"results/{item.key}.json", json_dumps_bytes({
        "result": execute_job(job).to_record(), "cached": False,
        "worker": "w0", "attempts": 1}))
    assert queue.counts()["claimed"] == 1
    clock.advance(11.0)
    assert queue.requeue_expired() == []  # retired, not requeued
    assert queue.drained()
    assert queue.counts()["done"] == 1
    assert queue.results()[job.job_id].ok
    assert name not in queue._names("claims")


def test_crashed_bury_is_healed_from_the_dead_record(queue, clock):
    """Crash between writing dead/<key> and deleting the bookkeeping: the
    dead record is authoritative and the scavenger finishes the burial."""
    job = _jobs()[0]
    name = queue.enqueue(job)
    assert queue.claim("w0") is not None
    queue.transport.put(f"dead/{job.job_id}.json", json_dumps_bytes(
        {"job": job.to_record(), "error": "x", "attempts": 3}))
    clock.advance(11.0)
    assert queue.requeue_expired() == []
    assert queue.drained()
    assert queue.counts() == {"pending": 0, "claimed": 0, "done": 0, "dead": 1}


def test_corrupt_job_record_is_dead_lettered_not_fatal(queue):
    """Only the immutable spec's corruption buries a job — nothing is left
    to execute — and the rest of the queue keeps flowing."""
    jobs = _jobs()
    for job in jobs:
        queue.enqueue(job)
    queue.transport.put(f"jobs/{jobs[0].job_id}.json", b"{ truncated")
    claimed = []
    while True:
        item = queue.claim("w0")
        if item is None:
            break
        queue.complete(item, execute_job(item.job))
        claimed.append(item.key)
    assert len(claimed) == 3  # the other three jobs were unaffected
    assert queue.counts()["dead"] == 1
    assert "corrupt job record" in queue.dead()[jobs[0].job_id]["error"]


def test_foreign_documents_in_state_prefixes_are_ignored(queue):
    """Documents whose stem is not a job key are neither claimed nor
    counted, so they can never hold a drain open."""
    queue.transport.put("pending/README.json", b"{}")  # not a job key
    queue.transport.put("pending/notes.txt", b"hi")    # not even JSON-named
    queue.transport.put("dead/notes.json", b"{}")
    assert queue.counts() == {"pending": 0, "claimed": 0, "done": 0, "dead": 0}
    assert queue.drained()
    assert queue.terminal_keys() == set()
    assert all(count == 0
               for count, _ in queue_depths(queue.transport).values())
    assert queue.claim("w0") is None
    job = _jobs()[0]
    queue.enqueue(job)
    assert queue.claim("w0") is not None


def test_queue_config_is_shared_across_opens(make_transport):
    WorkQueue(transport=make_transport(), lease_seconds=5.0, max_attempts=7)
    reopened = WorkQueue(transport=make_transport(), lease_seconds=99.0,
                         max_attempts=1)
    assert reopened.lease_seconds == 5.0
    assert reopened.max_attempts == 7


def test_invalid_config_is_rejected_without_poisoning_the_store(make_transport):
    with pytest.raises(ValueError):
        WorkQueue(transport=make_transport(), lease_seconds=0.0)
    # The bad call must not have persisted its config: a valid open works.
    queue = WorkQueue(transport=make_transport(), lease_seconds=5.0)
    assert queue.lease_seconds == 5.0


def test_corrupt_result_document_is_skipped(queue):
    job = _jobs()[0]
    queue.enqueue(job)
    item = queue.claim("w0")
    queue.complete(item, execute_job(item.job))
    queue.transport.put(f"results/{job.job_id}.json", b"{ nope")
    assert queue.results() == {}  # unreadable record, not a crash
