"""Durable work queue with leases, retries and a dead-letter state.

The queue is a small state machine over *opaque keys* holding JSON
documents, stored in any :class:`~repro.campaign.dist.transport.
QueueTransport` — a shared directory, an in-process dict, or an HTTP
object-store broker.  Any number of workers (threads, processes, hosts)
cooperate without locks; every exclusive decision rests on the transport's
one atomic primitive, *conditional create* (compare-and-swap with
``if_match=None``).  Every document is named by its job key (the
:attr:`~repro.campaign.spec.JobSpec.job_id`); documents whose stem is not
shaped like one (:func:`~repro.campaign.spec.is_job_key`) are foreign and
left alone:

``jobs/<key>.json``
    Immutable job record: the :class:`~repro.campaign.spec.JobSpec` and
    its enqueue time.  Created once at enqueue time (conditional create,
    so racing orchestrators agree on one record).
``pending/<key>.json``
    The *ticket*: present from enqueue until the job settles, holding only
    the attempt counter.  A sorted listing *is* the schedule: job keys
    lead with the case and the zero-padded grid index, so a grid is
    claimed in grid order.
``claims/<key>.json``
    The claim *and* the lease, one document: worker identity, attempt
    counter, expiry.  Claiming is a conditional create — exactly one
    creator wins — so the lease exists from the first instant of the
    claim (no claim-without-lease window to grace over).  Workers renew
    the expiry with compare-and-swap while executing; a claim whose CAS
    tag went stale belongs to someone else now.
``results/<key>.json`` / ``done/<key>.json``
    Completion writes the :class:`~repro.campaign.jobs.JobResult` record
    first (the commit point), then the ``done`` marker, then retires the
    ticket and claim; a crash anywhere in between leaves a result that
    :meth:`WorkQueue.requeue_expired` retires idempotently.
``dead/<key>.json``
    Dead-letter records for jobs that exhausted ``max_attempts``.

Crash consistency is the design goal: a truncated or garbage ticket or
claim is *requeueable, never fatal* (a garbage ticket reads as attempt 0,
a garbage claim reads as expired), and because the record in ``jobs/`` is
immutable, bookkeeping corruption never loses the job itself.  Only a
corrupt ``jobs/`` record dead-letters the entry, since there is nothing
left to execute.  Conditional-delete races (a heartbeat renewing a lease
the scavenger is reclaiming) degrade to a re-executed job — harmless,
because results are content-derived — never to a lost one.

The transport seam is proven by the test suite: the same crash-injection
tests run identically over ``FsTransport``, ``MemoryTransport`` and
``HttpTransport`` (``tests/campaign/test_dist.py``,
``tests/campaign/test_transport.py``).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign.dist.transport import ANY, FsTransport, QueueTransport
from repro.campaign.jobs import JobResult, result_from_record_or_none
from repro.campaign.jsonio import json_dumps_bytes, json_loads_or_none
from repro.campaign.obs import MetricsRegistry, get_registry
from repro.campaign.spec import JobSpec, is_job_key

#: Pending tickets fetched per page during claim scans — a claim normally
#: wins inside the first page, so the scan stops shipping the full
#: keyspace for every poll.
_SCAN_PAGE = 64

#: Candidates whose result/ticket/claim documents are batch-probed per
#: claim round trip.  A claim normally wins on the window's first
#: candidate, so a bigger window mostly ships unused documents.
_CLAIM_WINDOW = 16

#: States whose document for a job makes a fresh ticket redundant.
_TICKET_BLOCKERS = ("pending", "claims", "done", "results", "dead")


def _job_keys(paths: Iterable[str], head: int) -> List[str]:
    """Job keys of the ``<state>/<key>.json`` documents among ``paths``
    (``head`` is the length of the ``<state>/`` prefix); foreign
    documents are skipped."""
    stems = (path[head:-5] for path in paths if path.endswith(".json"))
    return [stem for stem in stems if is_job_key(stem)]


def _lease_doc(worker: str, attempts: int, now: float,
               lease_seconds: float) -> Dict[str, Any]:
    """The claim-and-lease document, shared by every claim/renew path."""
    return {"worker": worker, "attempts": attempts, "claimed_at": now,
            "expires_at": now + lease_seconds}


def _retire_over(transport: QueueTransport, ns: str, key: str) -> None:
    """Idempotently move a ticket with a persisted result to ``done``.

    One mixed batch: create the done marker, then drop the ticket and
    the claim.
    """
    transport.mutate_many([
        ("put", f"{ns}done/{key}.json", json_dumps_bytes({}), None),
        ("delete", f"{ns}pending/{key}.json", None),
        ("delete", f"{ns}claims/{key}.json", None),
    ])


def _bury_over(transport: QueueTransport, ns: str, key: str,
               attempts: int, error: str,
               record: Optional[Dict[str, Any]] = None) -> None:
    """Dead-letter a job: persist the dead record, drop ticket and claim."""
    if record is None:
        got = transport.get(f"{ns}jobs/{key}.json")
        record = json_loads_or_none(got[0]) if got is not None else None
    record = record or {}
    transport.mutate_many([
        ("put", f"{ns}dead/{key}.json", json_dumps_bytes({
            "job": record.get("job"),
            "error": error,
            "attempts": attempts,
        }), ANY),
        ("delete", f"{ns}pending/{key}.json", None),
        ("delete", f"{ns}claims/{key}.json", None),
    ])


def claim_first_over(transport: QueueTransport, prefix: str = "pending/",
                     worker: str = "", now: Optional[float] = None,
                     lease_seconds: Optional[float] = None,
                     registry: Optional[MetricsRegistry] = None
                     ) -> Optional[Dict[str, Any]]:
    """Run one scan-probe-CAS claim pass over a bare transport.

    This is *the* claim algorithm — :meth:`WorkQueue.claim` runs it
    client-side over fs/memory transports, and the broker runs the very
    same function server-side to answer ``POST /claim``, where every
    round trip in it is a local store operation instead of a network
    exchange.

    ``prefix`` must end with ``"pending/"``; anything before it is the
    queue's key namespace (normally empty).  ``now`` defaults to the
    wall clock and ``lease_seconds`` to the queue config stored at
    ``<ns>queue.json`` (30s when absent) — callers with injected clocks
    or adopted configs pass both explicitly.

    Returns ``None`` when nothing is claimable, else the claim outcome::

        {"key": <job key>, "etag": <claim etag>,
         "attempts": <prior attempts>,
         "record": <jobs/ document>, "lease": <claim document>}

    — all JSON-serializable, because over HTTP this dict *is* the
    response body.  Corrupt bookkeeping never aborts the scan: a garbage
    ticket claims at attempt 0, a corrupt job record is dead-lettered
    and the scan continues.

    ``registry`` receives the pass's claim-conflict and dead-letter
    counters: the broker passes its own (so ``GET /stats`` reports
    fleet-wide contention), client-side scans default to the
    process-wide registry.
    """
    if not prefix.endswith("pending/"):
        raise ValueError(f"claim prefix must end with 'pending/': {prefix!r}")
    if registry is None:
        registry = get_registry()
    ns = prefix[:-len("pending/")]
    if now is None:
        now = time.time()
    if lease_seconds is None:
        got = transport.get(f"{ns}queue.json")
        config = json_loads_or_none(got[0]) if got is not None else None
        lease_seconds = float((config or {}).get("lease_seconds", 30.0))
    start_after = ""
    while True:
        page, token = transport.list_page(prefix, _SCAN_PAGE,
                                          start_after=start_after)
        candidates = _job_keys(page, len(prefix))
        for start in range(0, len(candidates), _CLAIM_WINDOW):
            outcome = _claim_window_over(
                transport, ns, candidates[start:start + _CLAIM_WINDOW],
                worker, now, lease_seconds, registry)
            if outcome is not None:
                return outcome
        if token is None:
            return None
        start_after = token


def _claim_window_over(transport: QueueTransport, ns: str,
                       candidates: List[str], worker: str, now: float,
                       lease_seconds: float,
                       registry: Optional[MetricsRegistry] = None
                       ) -> Optional[Dict[str, Any]]:
    """Try to claim one of ``candidates`` (one window of pending job keys,
    in listing order); returns the claim outcome dict or ``None``."""
    if not candidates:
        return None
    count = len(candidates)
    probes = transport.get_many(
        [f"{ns}results/{key}.json" for key in candidates]
        + [f"{ns}pending/{key}.json" for key in candidates]
        + [f"{ns}claims/{key}.json" for key in candidates])
    have_result = probes[:count]
    tickets = probes[count:2 * count]
    held = probes[2 * count:]
    for key, result_doc, ticket_doc, claim_doc in zip(
            candidates, have_result, tickets, held):
        if result_doc is not None:
            # Already computed (healed double-enqueue / crashed settle):
            # retire the ticket.
            _retire_over(transport, ns, key)
            continue
        if claim_doc is not None:
            continue  # held by a live (or not-yet-scavenged) claim
        ticket = (json_loads_or_none(ticket_doc[0])
                  if ticket_doc is not None else None) or {}
        attempts = int(ticket.get("attempts", 0) or 0)
        lease = _lease_doc(worker, attempts, now, lease_seconds)
        payload = json_dumps_bytes(lease)
        etag = transport.cas(f"{ns}claims/{key}.json", payload,
                             if_match=None)
        if etag is None:
            # Lost the race — unless the "conflict" is our own write: a
            # retried HTTP request whose first response was lost lands
            # the document, then sees it exist.  If the stored bytes are
            # exactly what we tried to write, the claim is ours; skipping
            # it would strand our own lease and burn a retry attempt the
            # job never used.  (Server-side the CAS is local and exact,
            # so this branch simply never fires there.)
            got = transport.get(f"{ns}claims/{key}.json")
            if got is None or got[0] != payload:
                if registry is not None:
                    registry.counter("queue_claim_conflicts_total").inc()
                continue  # genuinely someone else's claim
            etag = got[1]
        # Read the (immutable) job record only after winning: losers of a
        # contended claim should cost one failed CAS, not extra round
        # trips.  A corrupt record is buried from the claim we now hold,
        # exactly as a pre-claim check would have done.
        record_got = transport.get(f"{ns}jobs/{key}.json")
        record = (json_loads_or_none(record_got[0])
                  if record_got is not None else None)
        if not record or "job" not in record:
            _bury_over(transport, ns, key, attempts,
                       error="corrupt job record (unreadable spec)",
                       record=record)
            if registry is not None:
                registry.counter("queue_dead_letters_total").inc(
                    reason="corrupt-record")
            continue
        try:
            JobSpec.from_record(record["job"])
        except (KeyError, TypeError, ValueError):
            _bury_over(transport, ns, key, attempts,
                       error="corrupt job record (bad spec fields)",
                       record=record)
            if registry is not None:
                registry.counter("queue_dead_letters_total").inc(
                    reason="corrupt-record")
            continue
        return {"key": key, "etag": etag, "attempts": attempts,
                "record": record, "lease": lease}
    return None


@dataclass
class WorkItem:
    """A claimed job: everything a worker needs to execute and settle it.

    ``etag`` tracks the claim document's current CAS tag; heartbeats
    advance it, and settle operations use it so a worker only ever
    releases *its own* claim.
    """

    key: str           # job key (the JobSpec.job_id)
    job: JobSpec
    attempts: int      # completed attempts *before* this claim
    worker: str = ""
    etag: str = ""
    #: Timestamps for the per-job trace spans (queue-wait → run → store):
    #: when the job record was created and when this claim was taken.
    #: ``None`` on records from pre-telemetry enqueuers.
    enqueued_at: Optional[float] = None
    claimed_at: Optional[float] = None


class WorkQueue:
    """Durable multi-worker work queue over a pluggable transport.

    Parameters
    ----------
    root:
        Queue directory for the default filesystem transport.  Mutually
        exclusive with ``transport``.
    transport:
        Any :class:`~repro.campaign.dist.transport.QueueTransport`; lets
        the same queue protocol run over an in-memory store or an HTTP
        broker.
    lease_seconds:
        How long a claim stays valid without a heartbeat.  A worker that
        crashes mid-job simply stops heartbeating; the next
        :meth:`requeue_expired` call returns the job to pending.
    max_attempts:
        Total execution attempts before a job is dead-lettered.
    clock:
        Injectable time source (tests advance a fake clock instead of
        sleeping through lease expiries).

    The first creator of a queue persists ``lease_seconds`` and
    ``max_attempts`` into the ``queue.json`` key (conditional create, so
    exactly one creation race winner); later opens — worker processes,
    other hosts — adopt the stored values so every participant agrees on
    the lease protocol.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 lease_seconds: float = 30.0,
                 max_attempts: int = 3,
                 clock: Callable[[], float] = time.time,
                 transport: Optional[QueueTransport] = None,
                 registry: Optional[MetricsRegistry] = None):
        if transport is None:
            if root is None:
                raise ValueError("WorkQueue needs a root directory or a "
                                 "transport")
            transport = FsTransport(root)
        self.transport = transport
        self.registry = registry if registry is not None else get_registry()
        self.root = (Path(transport.root) if isinstance(transport, FsTransport)
                     else None)
        self._clock = clock
        config = self._get_json("queue.json")
        if not config:
            # Validate *before* persisting anything, so a bad constructor
            # call cannot poison the queue for later opens.
            if lease_seconds <= 0:
                raise ValueError("lease_seconds must be positive")
            if max_attempts < 1:
                raise ValueError("max_attempts must be >= 1")
            payload = {"lease_seconds": float(lease_seconds),
                       "max_attempts": int(max_attempts)}
            if self.transport.cas("queue.json", json_dumps_bytes(payload),
                                  if_match=None) is not None:
                config = payload
            else:
                # Lost the creation race: adopt the winner's policy.
                config = self._get_json("queue.json")
                if config is None:
                    # The key exists but holds garbage (torn by a crash
                    # mid-create, external corruption): heal it with an
                    # atomic rewrite, or every participant would silently
                    # run its own constructor defaults — divergent lease
                    # policies steal live claims.
                    self.transport.put("queue.json",
                                       json_dumps_bytes(payload))
                    config = payload
        lease_seconds = float(config.get("lease_seconds", lease_seconds))
        max_attempts = int(config.get("max_attempts", max_attempts))
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts

    @property
    def address(self) -> Optional[str]:
        """How a separate worker process reaches this queue (``--queue``)."""
        return self.transport.address

    # -- low-level helpers -------------------------------------------------
    def _get_json(self, key: str) -> Optional[Dict[str, Any]]:
        got = self.transport.get(key)
        return None if got is None else json_loads_or_none(got[0])

    def _names(self, state: str) -> List[str]:
        """Sorted job keys under a state prefix (foreign documents
        skipped)."""
        return _job_keys(self.transport.list(f"{state}/"), len(state) + 1)

    # -- enqueue -----------------------------------------------------------
    def enqueue(self, job: JobSpec) -> str:
        """Add ``job`` to the queue (idempotently) and return its key.

        Re-enqueueing a job that is already pending, claimed, done or
        dead-lettered is a no-op, so a restarted orchestrator can replay a
        whole grid into an existing queue safely.
        """
        key = job.job_id
        # enqueued_at anchors the per-job queue-wait span (see
        # obs.spans.spans_from_result_records).  The record is immutable:
        # a lost create keeps the winner's record.
        self.transport.cas(f"jobs/{key}.json", self._job_record(job),
                           if_match=None)
        # One batched probe for every state that would make the ticket
        # redundant, instead of five sequential round trips.
        probes = self.transport.get_many(
            [f"{state}/{key}.json" for state in _TICKET_BLOCKERS])
        if all(got is None for got in probes):
            self.transport.cas(f"pending/{key}.json",
                               json_dumps_bytes({"attempts": 0}),
                               if_match=None)
        return key

    def enqueue_grid(self, jobs: Iterable[JobSpec]) -> List[str]:
        """Enqueue many jobs in grid order; returns their keys.

        Fully batched: existing state is listed once up front, the
        (immutable) job records are conditionally created in one
        ``mutate_many`` and the tickets land in one more — so replaying a
        large grid costs five listings and two batch round trips, not
        O(jobs) round trips, over the HTTP transport.  Races with
        concurrent orchestrators settle exactly as in :meth:`enqueue`.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        known = set()
        for state in _TICKET_BLOCKERS:
            known.update(self._names(state))
        self.transport.mutate_many(
            [("put", f"jobs/{job.job_id}.json", self._job_record(job), None)
             for job in jobs])
        tickets: List[Tuple] = []
        for job in jobs:
            if job.job_id not in known:
                known.add(job.job_id)
                tickets.append(("put", f"pending/{job.job_id}.json",
                                json_dumps_bytes({"attempts": 0}), None))
        if tickets:
            self.transport.mutate_many(tickets)
        return [job.job_id for job in jobs]

    def _job_record(self, job: JobSpec) -> bytes:
        return json_dumps_bytes({"job": job.to_record(),
                                 "enqueued_at": self._clock()})

    # -- claim / lease -----------------------------------------------------
    def _lease_payload(self, worker: str, attempts: int,
                       now: float) -> Dict[str, Any]:
        return _lease_doc(worker, attempts, now, self.lease_seconds)

    def claim(self, worker: str = "") -> Optional[WorkItem]:
        """Atomically claim the first pending job in key order, if any.

        A claim is one conditional create of the ``claims/`` document —
        exactly one creator wins, and the document *is* the lease, so
        there is never a claimed job without an expiry.  Corrupt
        bookkeeping never aborts the scan: a garbage ticket is claimed
        with ``attempts == 0`` (requeueable), while a corrupt immutable
        job record is dead-lettered (nothing left to execute) and the
        scan continues with the next ticket.

        The algorithm is :func:`claim_first_over` — one scan-probe-CAS
        pass: page the pending listing (a claim normally wins inside the
        first page, so an idle poll never ships the whole keyspace),
        batch-probe each candidate window's result, ticket *and* claim
        documents in one round trip, CAS-create the claim document.

        When the transport advertises a server-side claim (a callable
        ``claim_first`` — the HTTP transport), the whole pass runs
        broker-side as one ``POST /claim`` round trip instead of four; the
        claimant's clock and adopted lease policy ride along, so the
        semantics (including fake-clock tests) are identical.  Transports
        whose ``claim_first`` is absent or ``None`` run the pass
        client-side.
        """
        claim_first = (getattr(self.transport, "claim_first", None)
                       or functools.partial(claim_first_over, self.transport,
                                            registry=self.registry))
        while True:
            outcome = claim_first(prefix="pending/", worker=worker,
                                  now=self._clock(),
                                  lease_seconds=self.lease_seconds)
            if outcome is None:
                return None
            item = self._item_from_outcome(outcome, worker)
            if item is not None:
                return item
            # The outcome carried a record this client cannot parse
            # (version skew): it was buried client-side; rescan.

    def _item_from_outcome(self, outcome: Dict[str, Any],
                           worker: str) -> Optional[WorkItem]:
        """Build a :class:`WorkItem` from a claim outcome document.

        The outcome's job record was validated by whoever ran the scan
        (this process, or the broker answering ``POST /claim``) — but
        that validator may run a different code version, so a record
        that fails to parse *here* is buried from the claim we hold,
        and ``None`` tells the caller to rescan.
        """
        key = str(outcome.get("key", ""))
        attempts = int(outcome.get("attempts", 0) or 0)
        record = outcome.get("record")
        job_record = (record or {}).get("job") if isinstance(record, dict) \
            else None
        try:
            job = JobSpec.from_record(job_record)
        except (KeyError, TypeError, ValueError, AttributeError):
            self._bury(key, attempts,
                       error="corrupt job record (bad spec fields)")
            return None
        lease = outcome.get("lease")
        lease = lease if isinstance(lease, dict) else {}

        def _stamp(value: Any) -> Optional[float]:
            try:
                return float(value) if value is not None else None
            except (TypeError, ValueError):
                return None

        return WorkItem(key=key, job=job, attempts=attempts, worker=worker,
                        etag=str(outcome.get("etag", "") or ""),
                        enqueued_at=_stamp(record.get("enqueued_at")),
                        claimed_at=_stamp(lease.get("claimed_at")))

    def heartbeat(self, item: WorkItem,
                  metrics: Optional[Dict[str, Any]] = None) -> bool:
        """Extend the lease of a claimed job (call while executing).

        Renewal is a compare-and-swap on the claim document, so a lease
        the scavenger already reclaimed (or another worker re-claimed)
        cannot be resurrected.  Returns ``True`` when the lease is still
        ours and was extended.

        ``metrics`` (a JSON-safe dict, e.g. :meth:`~repro.campaign.dist.
        worker.Worker.metrics_snapshot`) rides along in the renewed
        claim document, where :func:`repro.campaign.dist.stats.
        worker_reports` reads per-worker throughput without any extra
        round trips or side channels.  The *initial*
        claim document never carries metrics, so the claim path's
        own-write byte comparison is unaffected.
        """
        doc = self._lease_payload(item.worker, item.attempts, self._clock())
        if metrics:
            doc["metrics"] = metrics
        payload = json_dumps_bytes(doc)
        etag = self.transport.cas(f"claims/{item.key}.json", payload,
                                  if_match=item.etag)
        if etag is None:
            # Raced our own previous renewal or lost the claim: re-read
            # once and retry only if the claim still names us.
            got = self.transport.get(f"claims/{item.key}.json")
            if got is None:
                return False
            lease = json_loads_or_none(got[0])
            if not lease or lease.get("worker") != item.worker:
                return False
            etag = self.transport.cas(f"claims/{item.key}.json", payload,
                                      if_match=got[1])
            if etag is None:
                return False
        item.etag = etag
        return True

    # -- settle ------------------------------------------------------------
    def complete(self, item: WorkItem, result: JobResult,
                 timing: Optional[Dict[str, Any]] = None) -> None:
        """Persist ``result`` and retire the claim.

        The result record is the commit point: it is written *before* the
        ``done`` marker and the ticket/claim deletions, so a crash between
        the steps loses no work — the scavenger retires tickets whose
        result already exists.  Completion after a lease expiry (the job
        was requeued and possibly re-run elsewhere) is harmless: results
        are content-derived and therefore identical, and the stale claim
        etag keeps us from touching the new claimant's lease.

        Settling is *one* mixed batch round trip (``mutate_many``): the
        result record, then the done marker, then the retirements —
        batches apply in order, so the result is still the commit point.

        ``timing`` (unix-second stamps: ``enqueued_at``, ``claimed_at``,
        ``started_at``, ``finished_at``, ``stored_at``) is persisted
        inside the result record; :func:`repro.campaign.obs.spans.
        spans_from_result_records` rebuilds per-job queue-wait → run →
        store trace spans from it — telemetry travels through the queue
        itself, so it works across processes and hosts with no side
        channel.
        """
        record = {
            "result": result.to_record(),
            "cached": bool(result.cached),
            "worker": item.worker,
            "attempts": item.attempts + 1,
        }
        if timing:
            record["timing"] = dict(timing)
        self.transport.mutate_many([
            ("put", f"results/{item.key}.json", json_dumps_bytes(record),
             ANY),
            ("put", f"done/{item.key}.json", json_dumps_bytes({}), None),
            ("delete", f"pending/{item.key}.json", None),
            # Conditional on our etag: ours going stale (late completion
            # after requeue) must leave the new claimant's lease alone.
            ("delete", f"claims/{item.key}.json", item.etag or None),
        ])

    def fail(self, item: WorkItem, error: str) -> str:
        """Record a failed attempt; requeue or dead-letter.

        Returns ``"requeued"`` or ``"dead"``.  This is the path for
        *infrastructure* failures (the worker could not run the job at
        all); workload exceptions are captured into ``JobResult.error`` by
        ``execute_job`` and settle through :meth:`complete`, exactly as
        they do under the in-process executors.
        """
        attempts = item.attempts + 1
        if attempts >= self.max_attempts:
            self._bury(item.key, attempts, error=error)
            self.registry.counter("queue_dead_letters_total").inc(
                reason="failed")
            return "dead"
        # Fold the attempt into the ticket first, then release the claim
        # (the release is the commit point, mirroring claim): the requeue
        # never deletes a ticket some other worker might rely on, so a
        # racing claim is at worst re-run, never stranded.  One mixed
        # batch; ops apply in order.
        self.transport.mutate_many([
            ("put", f"pending/{item.key}.json",
             json_dumps_bytes({"attempts": attempts}), ANY),
            ("delete", f"claims/{item.key}.json", item.etag or None),
        ])
        return "requeued"

    def _bury(self, key: str, attempts: int, error: str) -> None:
        _bury_over(self.transport, "", key, attempts, error)

    # -- lease scavenging --------------------------------------------------
    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Release expired claims back to pending; heal stale state.

        A garbage claim document counts as expired (the bookkeeping was
        lost, the job was not).  A claim whose result already exists is
        retired instead of retried, and jobs over ``max_attempts`` move to
        the dead-letter state.  The release itself is a conditional
        delete: if the "expired" worker heartbeats concurrently (alive
        after all), its renewal wins and the claim stands.  Returns the
        keys that were requeued.
        """
        now = self._clock() if now is None else now
        have_results = set(self._names("results"))
        have_dead = set(self._names("dead"))
        requeued: List[str] = []
        keys = self._names("claims")
        # The heartbeat/scavenge scan reads every claim document in one
        # batch instead of one round trip per claim; the per-claim
        # decision logic below is unchanged.
        leases = self.transport.get_many(
            [f"claims/{key}.json" for key in keys])
        expired: List[Tuple[str, str, Optional[Dict[str, Any]]]] = []
        for key, got in zip(keys, leases):
            if key in have_results:
                _retire_over(self.transport, "", key)
                continue
            if key in have_dead:
                # Crash mid-bury: the dead record is authoritative.
                self.transport.mutate_many([
                    ("delete", f"pending/{key}.json", None),
                    ("delete", f"claims/{key}.json", None),
                ])
                continue
            if got is None:
                continue  # settled concurrently
            lease = json_loads_or_none(got[0])
            if lease is not None and float(lease.get("expires_at",
                                                     0.0)) > now:
                continue  # live lease
            expired.append((key, got[1], lease))
        if not expired:
            return requeued
        tickets = self.transport.get_many(
            [f"pending/{key}.json" for key, _, _ in expired])
        for (key, etag, lease), ticket_doc in zip(expired, tickets):
            ticket = (json_loads_or_none(ticket_doc[0])
                      if ticket_doc is not None else None) or {}
            attempts = int(ticket.get("attempts", 0) or 0)
            if lease is not None:
                attempts = max(attempts, int(lease.get("attempts", 0) or 0))
            attempts += 1
            if attempts >= self.max_attempts:
                self._bury(key, attempts,
                           error=f"lease expired after {attempts} attempts "
                                 f"(worker crash or hang)")
                self.registry.counter("queue_dead_letters_total").inc(
                    reason="lease-expired")
                continue
            # One batch: re-create the ticket if a crashed settle removed
            # it, fold in the attempt count, then release the claim —
            # conditionally, so a concurrent heartbeat renewal (the worker
            # lives) wins and the job is not reported requeued.
            _, released = self.transport.mutate_many([
                ("put", f"pending/{key}.json",
                 json_dumps_bytes({"attempts": attempts}), ANY),
                ("delete", f"claims/{key}.json", etag),
            ])
            if released:
                requeued.append(key)
        if requeued:
            self.registry.counter("queue_lease_expiries_total").inc(
                len(requeued))
        return requeued

    def retry_dead(self, keys: Optional[Iterable[str]] = None) -> List[str]:
        """Return dead-lettered jobs to pending with a fresh attempt budget
        — the recovery path after fixing whatever infrastructure failure
        exhausted their retries.

        Dead-lettering is otherwise terminal (``enqueue`` refuses to
        revive buried jobs, so replaying a grid cannot silently retry
        them), which would strand a persistent queue forever without
        this.  Restricts to ``keys`` when given; returns the keys
        actually revived (jobs whose spec record is unreadable cannot run
        and stay buried).  Every revival lands in one ``mutate_many``:
        the fresh tickets first, then the dead-record deletes — a crash
        mid-batch can leave a job both pending and buried (the next call
        revives it again), never neither.
        """
        wanted = None if keys is None else set(keys)
        buried = [key for key in self._names("dead")
                  if wanted is None or key in wanted]
        probes = self.transport.get_many(
            [f"results/{key}.json" for key in buried]
            + [f"jobs/{key}.json" for key in buried])
        revived: List[str] = []
        tickets: List[Tuple] = []
        deletes: List[Tuple] = []
        for key, result_doc, job_doc in zip(buried, probes[:len(buried)],
                                            probes[len(buried):]):
            if result_doc is not None:  # already computed
                deletes.append(("delete", f"dead/{key}.json", None))
                continue
            record = (json_loads_or_none(job_doc[0])
                      if job_doc is not None else None)
            if not record or "job" not in record:
                continue  # nothing left to execute
            tickets.append(("put", f"pending/{key}.json",
                            json_dumps_bytes({"attempts": 0}), ANY))
            deletes.append(("delete", f"dead/{key}.json", None))
            revived.append(key)
        if tickets or deletes:
            self.transport.mutate_many(tickets + deletes)
        return revived

    # -- inspection --------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Document counts per user-facing state, from listings alone.

        ``pending`` excludes tickets under a claim; ``claimed`` includes
        expired-but-unscavenged claims (use :meth:`live_claimed_keys` to
        distinguish).
        """
        pending = set(self._names("pending"))
        claims = set(self._names("claims"))
        return {"pending": len(pending - claims),
                "claimed": len(claims),
                "done": len(self._names("done")),
                "dead": len(self._names("dead"))}

    def drained(self) -> bool:
        """True when nothing is left to execute (no tickets, no claims).

        Emptiness is probed with one-page listings (a drain poll must not
        ship the whole pending keyspace just to learn it is non-empty).
        """
        return self._state_empty("pending") and self._state_empty("claims")

    def _state_empty(self, state: str) -> bool:
        """True when a state prefix holds no job documents."""
        head = len(state) + 1
        start_after = ""
        while True:
            page, token = self.transport.list_page(f"{state}/", 16,
                                                   start_after=start_after)
            if _job_keys(page, head):
                return False
            if token is None:
                return True
            start_after = token  # page of foreign names only: keep looking

    def live_claimed_keys(self, now: Optional[float] = None) -> List[str]:
        """Claimed jobs whose lease is still live (read-only probe).

        A claim with a garbage or expired lease belongs to a crashed
        worker: it is *requeueable*, not running, and status reporting
        should say so even before a scavenger runs.
        """
        now = self._clock() if now is None else now
        keys = self._names("claims")
        live: List[str] = []
        for key, got in zip(keys, self.transport.get_many(
                [f"claims/{key}.json" for key in keys])):
            lease = json_loads_or_none(got[0]) if got is not None else None
            if lease is not None and float(lease.get("expires_at",
                                                     0.0)) > now:
                live.append(key)
        return live

    def terminal_keys(self) -> set:
        """Keys in a terminal state (result persisted or dead-lettered).

        Computed from listings alone — no document reads — so drain
        polling stays cheap (two round trips on the HTTP transport).
        """
        return set(self._names("results")) | set(self._names("dead"))

    def results(self) -> Dict[str, JobResult]:
        """All persisted results, keyed by job key (corrupt records skipped)."""
        out: Dict[str, JobResult] = {}
        for key, record in self.result_records().items():
            result = result_from_record_or_none(
                record, cached=bool(record.get("cached")))
            if result is not None:
                out[key] = result
        return out

    def result_records(self) -> Dict[str, Dict[str, Any]]:
        """Raw result documents keyed by job key — including the settling
        worker's identity and attempt number, for audits and tests."""
        return self._read_state("results")

    def dead(self) -> Dict[str, Dict[str, Any]]:
        """Dead-letter records keyed by job key."""
        return self._read_state("dead")

    def _read_state(self, state: str) -> Dict[str, Dict[str, Any]]:
        """All of one state's documents, fetched in batches (a 10k-result
        collection is a handful of round trips, not 10k)."""
        keys = self._names(state)
        out: Dict[str, Dict[str, Any]] = {}
        for key, got in zip(keys, self.transport.get_many(
                [f"{state}/{key}.json" for key in keys])):
            record = json_loads_or_none(got[0]) if got is not None else None
            if record is not None:
                out[key] = record
        return out

    def __repr__(self) -> str:
        counts = self.counts()
        where = self.address or repr(self.transport)
        return (f"WorkQueue({where!r}, pending={counts['pending']}, "
                f"claimed={counts['claimed']}, done={counts['done']}, "
                f"dead={counts['dead']})")
