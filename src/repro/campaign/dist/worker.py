"""The distributed-campaign worker: claim, deduplicate, execute, heartbeat.

Runnable as a module::

    python -m repro.campaign.dist.worker --queue DIR_OR_URL \
        [--cache DIR_OR_URL] [--worker-id ID] [--exit-when-drained] \
        [--max-jobs N] [--idle-timeout SECONDS]

``--queue`` and ``--cache`` each accept a *directory* (shared-filesystem
transport) or an ``http://host:port`` broker URL (see
:mod:`repro.campaign.dist.server`); any number of workers may point at the
same queue and cache — a fleet sharing nothing but a broker URL
(``--queue http://b:8123 --cache http://b:8123``) deduplicates exactly
like one sharing a filesystem.  Each loop iteration scavenges expired
leases, claims the first pending ticket in key order (against a broker
the whole claim scan runs server-side as one ``POST /claim`` round trip;
directory and in-memory queues run the same scan client-side), probes
the shared result cache (:func:`~repro.campaign.cache.open_cache`)
*before* running (another worker may have computed the job already —
results are content-derived, so serving the cached record is exact),
executes via
:func:`~repro.campaign.jobs.execute_job` while a daemon thread heartbeats
the lease, stores the fresh result back into the cache, and settles the
claim.  Workload exceptions settle as completed-with-error results (the
same contract as the in-process executors); only infrastructure failures —
the job could not be run at all — consume a retry attempt.

A *transient* transport failure mid-loop (a broker restarting, one
dropped request, a partition window) does **not** kill the worker: the
loop retries with bounded, jittered backoff until the outage has lasted
``--max-outage`` seconds (default 30; ``0`` fails fast), mirroring the
per-beat tolerance of the lease-heartbeat thread.
A settle interrupted by such a failure is retried in place (the settle
batch is conditional, so replaying it is safe) rather than abandoning
the executed result to a lease expiry.  A *cache* transport that dies
mid-run only degrades deduplication — probes/stores are skipped with a
``cache-degraded`` event and the job executes anyway — while an
unreachable cache at startup is a config error (exit 3, probed once).
Only a *sustained* queue outage — or an unreachable store at startup —
surfaces as exit code 3.

Exit codes (documented in ``docs/distributed.md``): **0** — clean exit
(drained, idle timeout, or job budget reached); **2** — bad command line
(argparse, or a malformed ``--queue``/``--cache`` URL); **3** — the queue
or cache transport is unreachable for longer than the outage budget
(broker down, unwritable directory), reported as a one-line message
rather than a traceback.

Workers with custom (non-built-in) cases set ``REPRO_CASE_PROVIDERS`` to a
colon-separated list of modules to import before execution (see
:mod:`repro.campaign.jobs`).
"""

from __future__ import annotations

import argparse
import os
import random
import socket
import sys
import threading
import time
from typing import Optional, Tuple

from repro.campaign.cache import TransportResultCache, open_cache
from repro.campaign.dist.queue import WorkItem, WorkQueue
from repro.campaign.dist.transport import TransportError, transport_from_address
from repro.campaign.jobs import (
    JobResult,
    execute_job,
    result_from_record_or_none,
)
from repro.campaign.obs import StructLogger, get_registry

#: Exit code for a bad command line (see module docstring).
EXIT_USAGE = 2

#: Exit code for an unreachable queue transport (see module docstring).
EXIT_TRANSPORT_ERROR = 3


class WorkerCrash(Exception):
    """Injected crash for in-process (thread-fleet) workers.

    Raised by the ``crash_after_claims`` test hook under
    ``crash_mode="abandon"``: the worker abandons its claim without
    settling it — the thread-fleet analogue of a process hard-exit — and
    the dangling lease must expire and requeue, exactly like a real crash.
    """


class _LeaseHeartbeat(threading.Thread):
    """Daemon thread renewing a claim's lease while the job executes.

    Each renewal carries the worker's metrics snapshot (when a provider
    is given) into the claim document, so fleet dashboards see per-worker
    throughput through the queue itself — see
    :func:`repro.campaign.dist.stats.worker_reports`.

    A transient :class:`TransportError` (or ``OSError``) during a renewal
    must never escape this thread or kill the work loop: the beat is
    logged, counted (``worker_heartbeat_errors_total``), and retried on
    the next tick — renewals fire at lease/4, so one lost beat leaves
    the lease comfortably live, and a *persistently* dead transport
    surfaces through the executing job's settle path with a clean exit
    code instead of an unraisable thread exception.
    """

    def __init__(self, queue: WorkQueue, item: WorkItem,
                 metrics=None, log: Optional[StructLogger] = None):
        super().__init__(daemon=True, name=f"heartbeat-{item.key}")
        self._queue = queue
        self._item = item
        self._metrics = metrics
        self._log = log
        # NB: named _halt because threading.Thread reserves _stop internally.
        self._halt = threading.Event()
        #: Renew well inside the lease so one missed beat is survivable.
        self.interval = max(0.05, queue.lease_seconds / 4.0)
        #: Renewals that failed on a transport error (telemetry + tests).
        self.errors = 0

    def run(self) -> None:
        """Renew until :meth:`stop`; transient transport errors are retried
        on the next beat rather than surfaced (the settle path reports)."""
        while not self._halt.wait(self.interval):
            try:
                snapshot = self._metrics() if self._metrics else None
                self._queue.heartbeat(self._item, metrics=snapshot)
            except (OSError, TransportError) as exc:
                self.errors += 1
                get_registry().counter(
                    "worker_heartbeat_errors_total").inc()
                if self._log is not None:
                    self._log.event("heartbeat-error", key=self._item.key,
                                    error=f"{type(exc).__name__}: {exc}")

    def stop(self) -> None:
        """Stop renewing and join the thread (bounded wait)."""
        self._halt.set()
        self.join(timeout=2.0)


class Worker:
    """One worker's claim-execute-settle loop (process- or thread-hosted).

    Parameters
    ----------
    exit_when_drained:
        Stop as soon as the queue has no pending *and* no claimed work —
        how executor-spawned fleets shut down.  A standing worker (the
        default) keeps polling for new jobs forever, bounded by
        ``idle_timeout`` / ``max_jobs`` when given.
    idle_timeout:
        Exit after this many consecutive seconds without a claimable job.
        Standing external workers use this to leave a queue that has gone
        quiet; nothing ever preempts a running job.
    max_outage:
        Transient-failure budget: a :class:`TransportError` (or
        ``OSError``) in the claim/settle loop is retried with bounded
        jittered backoff until the outage has lasted this many
        consecutive seconds, then re-raised (the CLI maps it to exit
        code 3).  ``0`` fails fast on the first error; ``None`` retries
        forever.  Any successful operation resets the budget.
    crash_after_claims:
        Test hook: simulate a worker crash immediately after the N-th
        successful claim, *before* settling it, leaving a dangling lease.
    crash_mode:
        How the injected crash manifests: ``"exit"`` hard-exits the
        process (``os._exit``, for spawned worker processes);
        ``"abandon"`` raises :class:`WorkerCrash` (for thread-hosted
        workers, where ``os._exit`` would take the whole fleet down).
    """

    def __init__(self, queue: WorkQueue,
                 cache: Optional[TransportResultCache] = None,
                 worker_id: Optional[str] = None,
                 poll_interval: float = 0.2,
                 idle_timeout: Optional[float] = None,
                 max_jobs: Optional[int] = None,
                 exit_when_drained: bool = False,
                 deadline: Optional[float] = None,
                 max_outage: Optional[float] = 30.0,
                 crash_after_claims: Optional[int] = None,
                 crash_mode: str = "exit",
                 log=None):
        if crash_mode not in ("exit", "abandon"):
            raise ValueError("crash_mode must be 'exit' or 'abandon'")
        self.queue = queue
        self.cache = cache
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        self.max_jobs = max_jobs
        self.exit_when_drained = exit_when_drained
        #: ``time.monotonic()`` value after which no *new* claim is made
        #: (a job already executing runs to completion — claims are not
        #: preemptible, exactly like SerialExecutor).
        self.deadline = deadline
        self.max_outage = max_outage
        self.crash_after_claims = crash_after_claims
        self.crash_mode = crash_mode
        self._log = log or (lambda _line: None)
        # Structured stderr events for the paths a line logger cannot
        # reach (heartbeat-thread errors); quiet by design otherwise.
        self._events = StructLogger("worker")
        self.processed = 0
        self.cache_served = 0
        self.claims = 0
        self.started_at = time.time()

    def metrics_snapshot(self) -> dict:
        """This worker's throughput counters as a JSON-safe dict.

        Rides every heartbeat renewal into the claim document (see
        :meth:`~repro.campaign.dist.queue.WorkQueue.heartbeat`), where
        :func:`repro.campaign.dist.stats.worker_reports` reads per-worker
        throughput with no side channel.  ``at`` stamps the snapshot so
        readers can prefer the freshest one.
        """
        now = time.time()
        uptime = max(1e-9, now - self.started_at)
        return {
            "at": now,
            "worker": self.worker_id,
            "uptime_seconds": uptime,
            "processed": self.processed,
            "cache_served": self.cache_served,
            "claims": self.claims,
            "jobs_per_second": self.processed / uptime,
        }

    def run(self) -> int:
        """Process jobs until a stop condition holds; returns jobs settled.

        Transient :class:`TransportError` / ``OSError`` anywhere in the
        scavenge-claim-settle loop is absorbed with bounded jittered
        backoff (see ``max_outage``) — a worker must ride out a broker
        restart or a partition window rather than dying on the first
        dropped request.  A job whose settle was interrupted is *safe
        either way*: its lease expires and the ticket requeues, and the
        result cache deduplicates any re-execution.

        Raises
        ------
        TransportError:
            The queue's backing store stayed unreachable past the
            ``max_outage`` budget.  The CLI maps this to exit code 3.
        WorkerCrash:
            Only under the ``crash_mode="abandon"`` test hook.
        """
        idle_since: Optional[float] = None
        next_scavenge = 0.0
        outage_since: Optional[float] = None
        outage_retries = 0
        while True:
            if self.max_jobs is not None and self.processed >= self.max_jobs:
                break
            if (self.deadline is not None
                    and time.monotonic() >= self.deadline):
                break
            try:
                # Scavenging scans every claim document; leases cannot
                # expire faster than lease_seconds, so once per half-lease
                # per worker gives identical recovery latency at a
                # fraction of the (possibly NFS or HTTP) metadata traffic.
                now = time.monotonic()
                if now >= next_scavenge:
                    self.queue.requeue_expired()
                    next_scavenge = now + self.queue.lease_seconds / 2.0
                item = self.queue.claim(self.worker_id)
                if (item is None and self.exit_when_drained
                        and self.queue.drained()):
                    break
            except (OSError, TransportError) as exc:
                outage_since, outage_retries = self._outage_pause(
                    exc, outage_since, outage_retries)
                continue
            if outage_since is not None:
                self._events.event(
                    "transport-recovered", retries=outage_retries,
                    outage_seconds=round(time.monotonic() - outage_since, 3))
                outage_since, outage_retries = None, 0
            if item is None:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (self.idle_timeout is not None
                        and now - idle_since >= self.idle_timeout):
                    break
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            self.claims += 1
            if (self.crash_after_claims is not None
                    and self.claims >= self.crash_after_claims):
                self._log(f"{self.worker_id}: injected crash after claim "
                          f"#{self.claims} ({item.key})")
                if self.crash_mode == "exit":
                    os._exit(42)
                raise WorkerCrash(f"abandoned {item.key} after claim "
                                  f"#{self.claims}")
            try:
                self._run_item(item)
            except (OSError, TransportError) as exc:
                # The cache probe/store failed, or the settle's own retry
                # budget ran out — the claim is either already settled (a
                # torn write) or will expire and requeue, and the cache
                # dedups a re-execution.  Either way the job is not lost,
                # so ride out the outage.
                outage_since, outage_retries = self._outage_pause(
                    exc, outage_since, outage_retries)
                continue
            self.processed += 1
        return self.processed

    def _outage_pause(self, exc: BaseException,
                      outage_since: Optional[float],
                      retries: int) -> Tuple[float, int]:
        """Sleep out one transient transport failure, or give up.

        Re-raises the active exception once the outage has lasted
        ``max_outage`` consecutive seconds; otherwise sleeps a
        full-jitter exponential delay (capped at 2s and at the remaining
        budget — the same idiom as ``HttpTransport``'s retry backoff)
        and returns the updated ``(outage_since, retries)``.
        """
        now = time.monotonic()
        started = now if outage_since is None else outage_since
        elapsed = now - started
        if self.max_outage is not None and elapsed >= self.max_outage:
            raise
        base = max(0.05, self.poll_interval)
        ceiling = min(max(base, 2.0), base * (2 ** min(retries, 6)))
        delay = random.uniform(0.0, ceiling)
        if self.max_outage is not None:
            delay = min(delay, max(0.0, self.max_outage - elapsed))
        get_registry().counter(
            "worker_transport_retries_total",
            "transient transport errors absorbed by the worker loop").inc()
        self._events.event(
            "transport-retry", error=f"{type(exc).__name__}: {exc}",
            elapsed=round(elapsed, 3), delay=round(delay, 3),
            budget=self.max_outage)
        time.sleep(delay)
        return started, retries + 1

    def _complete(self, item: WorkItem, result: JobResult,
                  timing: Optional[dict] = None) -> None:
        """Settle a claim, retrying transient transport errors in place.

        An executed result is the expensive half of the loop — abandoning
        it to one dropped settle reply forces a full re-execution after
        the lease expires.  The settle batch is conditional end to end
        (content-derived result overwrite, create-only done marker,
        etag-guarded claim delete), so replaying it is safe: an
        already-applied settle is a no-op, a lost one is applied.  The
        retry shares the same ``max_outage`` budget/backoff idiom as the
        outer loop and re-raises once it is exhausted.
        """
        outage_since: Optional[float] = None
        retries = 0
        while True:
            try:
                self.queue.complete(item, result, timing=timing)
                return
            except (OSError, TransportError) as exc:
                outage_since, retries = self._outage_pause(
                    exc, outage_since, retries)

    # -- one claim ---------------------------------------------------------
    def _timing(self, item: WorkItem, **stamps: float) -> dict:
        """The per-job timing document settled into the result record.

        Unix-second stamps for the queue-wait → run → store trace spans
        (:func:`repro.campaign.obs.spans.spans_from_result_records`);
        ``None`` stamps — records enqueued by pre-telemetry orchestrators
        — are simply omitted, and the affected span is skipped.
        """
        timing = {"enqueued_at": item.enqueued_at,
                  "claimed_at": item.claimed_at}
        timing.update(stamps)
        return {key: float(value) for key, value in timing.items()
                if value is not None}

    def _cache_get(self, job) -> Optional[JobResult]:
        """Probe the shared cache, degrading to a miss on a dead cache.

        The cache is a *dedup optimization* — results are content-derived,
        so executing without it is always correct.  Letting a cache-broker
        outage abort the claim would be strictly worse: each abort burns a
        lease cycle and a retry attempt until the job dead-letters.  (An
        unreachable cache at *startup* is still a config error: the CLI
        probes it once and exits 3.)
        """
        try:
            return result_from_record_or_none(self.cache.get(job),
                                              cached=True)
        except (OSError, TransportError) as exc:
            self._cache_degraded(exc, "probe")
            return None

    def _cache_put(self, job, record: dict) -> None:
        """Store into the shared cache; a dead cache only costs dedup."""
        try:
            self.cache.put(job, record)
        except (OSError, TransportError) as exc:
            self._cache_degraded(exc, "store")

    def _cache_degraded(self, exc: BaseException, op: str) -> None:
        get_registry().counter(
            "worker_cache_degraded_total",
            "cache probes/stores skipped because the cache transport "
            "was unreachable").inc(op=op)
        self._events.event("cache-degraded", op=op,
                           error=f"{type(exc).__name__}: {exc}")

    def _run_item(self, item: WorkItem) -> JobResult:
        job = item.job
        if self.cache is not None:
            result = self._cache_get(job)
            if result is not None:
                now = time.time()
                self._complete(item, result, timing=self._timing(
                    item, started_at=now, finished_at=now,
                    stored_at=time.time()))
                self.cache_served += 1
                self._log(f"{self.worker_id}: {item.key} served from cache")
                return result

        heartbeat = _LeaseHeartbeat(self.queue, item,
                                    metrics=self.metrics_snapshot,
                                    log=self._events)
        heartbeat.start()
        started_at = time.time()
        try:
            try:
                result = execute_job(job)
            finally:
                # Always stopped before any settle/cache write: a failure
                # below must not leak a daemon renewing the lease forever
                # (which would make the job unrequeueable).
                heartbeat.stop()
        except Exception as exc:  # noqa: BLE001 - infrastructure failure
            # execute_job captures *workload* exceptions itself; reaching
            # here means the job could not run at all (unknown case, broken
            # provider import, ...) — consume a retry attempt.
            outcome = self.queue.fail(
                item, f"{type(exc).__name__}: {exc}")
            self._log(f"{self.worker_id}: {item.key} failed to start "
                      f"({outcome}): {exc}")
            return JobResult(job_id=job.job_id, case=job.case,
                             params=job.params, seed=job.seed,
                             error=f"{type(exc).__name__}: {exc}")
        finished_at = time.time()
        if self.cache is not None and result.ok:
            self._cache_put(job, {"result": result.to_record()})
        self._complete(item, result, timing=self._timing(
            item, started_at=started_at, finished_at=finished_at,
            stored_at=time.time()))
        status = "ok" if result.ok else f"error: {result.error}"
        self._log(f"{self.worker_id}: {item.key} done in "
                  f"{result.wall_time:.2f}s ({status})")
        return result


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.dist.worker",
        description="Claim and execute campaign jobs from a durable work "
                    "queue (a shared directory or an HTTP broker).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "environment:\n"
            "  REPRO_CASE_PROVIDERS   colon-separated modules imported "
            "before execution,\n"
            "                         so workers can run cases registered "
            "outside repro.workloads\n"
            "                         (e.g. REPRO_CASE_PROVIDERS=my.cases "
            "registers @register_case\n"
            "                         decorators in my/cases.py)\n"
            "\n"
            "caveats:\n"
            "  The result cache's hits/misses counters are per-process: "
            "each worker\n"
            "  counts only the probes it made itself, whichever transport "
            "backs the\n"
            "  cache.  For per-campaign accounting read "
            "CampaignResult.meta['cache']\n"
            "  on the orchestrator side (docs/distributed.md).\n"
            "\n"
            "exit codes:\n"
            "  0  clean exit (queue drained, idle timeout, or --max-jobs "
            "reached)\n"
            "  2  bad command line (including a malformed broker URL)\n"
            "  3  queue or cache transport unreachable at startup, or "
            "unreachable\n"
            "     mid-loop for longer than --max-outage seconds\n"))
    parser.add_argument("--queue", required=True,
                        help="work-queue directory or broker URL "
                             "(http://host:port), as created by the "
                             "orchestrator / DistributedExecutor / "
                             "python -m repro.campaign.dist.server")
    parser.add_argument("--cache", default=None,
                        help="shared result cache for cross-worker "
                             "deduplication: a directory or a broker URL "
                             "(http://host:port) — fleets without any "
                             "shared filesystem deduplicate through the "
                             "broker")
    parser.add_argument("--worker-id", default=None,
                        help="stable identity recorded in leases/results "
                             "(default: <hostname>-<pid>)")
    parser.add_argument("--poll-interval", type=float, default=0.2,
                        help="seconds between claim attempts when idle")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="exit after this many consecutive idle seconds "
                             "(standing workers use this to leave a quiet "
                             "queue)")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="exit after settling this many jobs")
    parser.add_argument("--exit-when-drained", action="store_true",
                        help="exit once the queue has no pending or claimed "
                             "work (fleet mode)")
    parser.add_argument("--transport-retries", type=int, default=5,
                        help="connection retries before giving up on an "
                             "unreachable broker (exit code 3)")
    parser.add_argument("--max-outage", type=float, default=30.0,
                        help="keep retrying transient transport errors "
                             "mid-loop with jittered backoff until the "
                             "outage has lasted this many seconds, then "
                             "exit 3 (default: 30; 0 fails fast on the "
                             "first error)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    # Test hook: simulate a worker crash (hard exit) mid-job.
    parser.add_argument("--crash-after-claims", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Per-job progress is *diagnostics*, not program output: it goes to
    # stderr through the structured logger (one "[worker] progress ..."
    # line per event), leaving stdout clean for whatever wraps the CLI.
    events = StructLogger("worker", enabled=not args.quiet)
    log = (lambda _line: None) if args.quiet else (
        lambda line: events.event("progress", detail=line))
    transport = cache = None
    try:
        try:
            transport = transport_from_address(
                args.queue, retries=args.transport_retries)
            cache = (open_cache(args.cache, retries=args.transport_retries)
                     if args.cache else None)
        except ValueError as exc:
            # A malformed broker URL (say, a port that is not a number)
            # is a bad command line, not a traceback.
            flag = "--queue" if transport is None else "--cache"
            print(f"worker: bad {flag} address: {exc}",
                  file=sys.stderr, flush=True)
            return EXIT_USAGE
        queue = WorkQueue(transport=transport)
        if cache is not None:
            # Probe the cache once up front: pointing a fleet at a dead
            # cache broker is a config error and fails fast (exit 3),
            # while a cache that dies *mid-run* merely degrades dedup
            # (see Worker._cache_get/_cache_put).
            probe = getattr(cache, "transport", None)
            if probe is not None:
                probe.list_page("", 1)
        worker = Worker(queue, cache=cache, worker_id=args.worker_id,
                        poll_interval=args.poll_interval,
                        idle_timeout=args.idle_timeout,
                        max_jobs=args.max_jobs,
                        exit_when_drained=args.exit_when_drained,
                        max_outage=args.max_outage,
                        crash_after_claims=args.crash_after_claims,
                        log=log)
        processed = worker.run()
    except TransportError as exc:
        # One clean line blaming the store that actually failed.  The
        # exception carries the failing transport's own address, compared
        # *exactly* against the constructed transports' addresses (never
        # substring-matched — nested paths would misblame).  The queue is
        # the default: its transport is built first, so with it built the
        # only other store a TransportError can name is the cache —
        # whether the cache was still being opened or already serving
        # probes.
        where = f"queue {args.queue!r}"
        failed = getattr(exc, "address", None)
        if (args.cache and transport is not None
                and failed is not None
                and failed != transport.address
                and (cache is None or failed == cache.address)):
            where = f"cache {args.cache!r}"
        print(f"worker: cannot reach {where}: {exc}",
              file=sys.stderr, flush=True)
        return EXIT_TRANSPORT_ERROR
    log(f"{worker.worker_id}: exiting after {processed} jobs "
        f"({worker.cache_served} cache-served); queue now {queue!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
