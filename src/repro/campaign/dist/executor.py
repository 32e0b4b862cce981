"""The distributed executor: a worker fleet behind the ``map(fn, jobs)`` seam.

:class:`DistributedExecutor` plugs into :func:`~repro.campaign.runner.
run_campaign` exactly like the in-process executors: the orchestrator still
expands the grid, probes the cache, and aggregates — this executor only
changes *where* the pending jobs run.  ``map`` enqueues the jobs into a
durable :class:`~repro.campaign.dist.queue.WorkQueue` in grid order,
brings up a fixed fleet of ``workers``, and blocks — scavenging expired
leases and replacing dead workers — until every job reaches a terminal
state or the timeout expires.

The queue's storage is pluggable (:mod:`repro.campaign.dist.transport`):

* a **directory** (``queue_dir`` or a path-string ``transport``) spawns
  worker *processes* sharing the filesystem — the classic mode;
* an **``http://`` broker URL** spawns worker processes that talk to
  :mod:`repro.campaign.dist.server` — campaigns spanning hosts without a
  shared filesystem; the broker serves ``POST /claim``,
  collapsing each worker's claim scan into a single round trip;
* an address-less transport (e.g.
  :class:`~repro.campaign.dist.transport.MemoryTransport`) runs the fleet
  as *threads* in this process — no spawn cost, ideal for tests and
  many-tiny-job grids.

The determinism contract survives distribution: job seeds are bound into
the :class:`~repro.campaign.spec.JobSpec` before submission and results are
keyed by content, so the aggregate is bit-identical to a serial run no
matter how many workers participated, which ones crashed, or how often a
job was retried.

With ``workers=0`` the fleet is external: ``map`` runs one in-process
worker loop to guarantee progress, and any separately launched workers
pointed at the same queue join in (the zero-worker mode is also what the
crash-free unit tests use — the whole queue protocol without process
spawns).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.campaign.cache import TransportResultCache, open_cache
from repro.campaign.dist.queue import WorkQueue
from repro.campaign.dist.transport import (
    QueueTransport,
    TransportError,
    transport_from_address,
)
from repro.campaign.jobs import JobResult, execute_job
from repro.campaign.obs import (
    SpanRecorder,
    StructLogger,
    spans_from_result_records,
)
from repro.campaign.spec import JobSpec


def _src_root() -> str:
    """Directory that makes ``import repro`` work in a spawned worker."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


class _ThreadWorkerHandle:
    """A thread-hosted worker with the ``subprocess.Popen`` control surface.

    Lets :meth:`DistributedExecutor._wait_for_drain` manage process and
    thread fleets through one API: ``poll()`` returns ``None`` while the
    worker runs, then an exit code (0 clean, 42 injected crash, 3
    transport failure, 1 unexpected error).
    """

    def __init__(self, worker: Any):
        self.worker = worker
        self.returncode: Optional[int] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"worker-{worker.worker_id}")
        self._thread.start()

    def _run(self) -> None:
        from repro.campaign.dist.worker import WorkerCrash

        try:
            self.worker.run()
            self.returncode = 0
        except WorkerCrash:
            self.returncode = 42   # injected crash: lease left dangling
        except TransportError:
            self.returncode = 3
        except Exception:  # noqa: BLE001 - surfaced via exit code
            self.returncode = 1

    def poll(self) -> Optional[int]:
        if self._thread.is_alive():
            return None
        return self.returncode if self.returncode is not None else 0

    def terminate(self) -> None:
        # Threads cannot be preempted: retract the claim budget so the
        # worker stops after its current job (claims are not preemptible,
        # matching process workers' SIGTERM-between-jobs behavior).
        self.worker.deadline = 0.0

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        self._thread.join(timeout)
        return self.poll()

    def kill(self) -> None:  # pragma: no cover - nothing stronger exists
        self.terminate()


class DistributedExecutor:
    """Run campaign jobs across a fleet of worker processes or threads.

    Parameters
    ----------
    queue_dir:
        Durable queue directory, shared with the workers.  ``None`` uses a
        per-``map`` temporary directory, removed after a clean drain.
        Shorthand for ``transport=str(queue_dir)``.
    transport:
        Where the queue lives: a
        :class:`~repro.campaign.dist.transport.QueueTransport` instance,
        a queue-directory path, or an ``http://`` broker URL (see the
        module docstring for how each shapes the fleet).  Overrides
        ``queue_dir``.
    workers:
        Fixed fleet size per ``map`` call.  ``0`` means the fleet is
        external (or in-process): ``map`` drains the queue with an inline
        worker loop instead of spawning.
    cache / cache_dir:
        Shared result cache the *workers* probe before and after running —
        the cross-worker deduplication layer.  ``cache`` takes a cache
        object (any :class:`~repro.campaign.cache.TransportResultCache`);
        ``cache_dir`` takes a directory *or* broker URL and goes through
        :func:`~repro.campaign.cache.open_cache`, so a fleet without any
        shared filesystem deduplicates through the broker.  Pass the same
        cache to ``run_campaign`` so the orchestrator also serves hits up
        front.  Spawned worker processes inherit the cache by address
        (``--cache``); an address-less cache (e.g. over a
        ``MemoryTransport``) is shared with thread fleets directly.
    lease_seconds / max_attempts:
        Queue retry policy (see :class:`~repro.campaign.dist.queue.WorkQueue`).
        Applied when ``map`` creates a fresh queue; an existing queue
        keeps its persisted policy.
    timeout:
        Upper bound on one ``map`` call's wall time.  On expiry a
        ``TimeoutError`` carries the queue state summary.
    worker_extra_args:
        Per-worker extra CLI arguments (``worker_extra_args[i]`` is
        appended to worker *i*'s command line) — used by the
        crash-injection tests and available for ad-hoc debugging flags.
        Process fleets only.
    worker_options:
        Per-worker extra :class:`~repro.campaign.dist.worker.Worker`
        keyword arguments (``worker_options[i]`` for worker *i*) — the
        thread-fleet analogue of ``worker_extra_args``.
    trace_path:
        When set, every ``map`` call reconstructs per-job spans
        (queue-wait → run → store, one lane per worker) from the settled
        result records and writes a Chrome-trace JSON file there — load
        it in Perfetto or ``about:tracing`` to see how the fleet spent
        its time.  Best-effort: trace IO failures never fail the
        campaign.
    """

    name = "distributed"

    def __init__(self,
                 queue_dir: Optional[os.PathLike] = None,
                 workers: int = 2,
                 cache: Optional[TransportResultCache] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 lease_seconds: float = 15.0,
                 max_attempts: int = 3,
                 poll_interval: float = 0.05,
                 timeout: float = 600.0,
                 transport: Union[QueueTransport, str, None] = None,
                 worker_extra_args: Optional[Sequence[Sequence[str]]] = None,
                 worker_options: Optional[Sequence[Dict[str, Any]]] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 trace_path: Union[str, os.PathLike, None] = None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.workers = workers
        if cache is None and cache_dir is not None:
            cache = open_cache(cache_dir)
        self.cache = cache
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.transport = transport
        self.worker_extra_args = [list(args)
                                  for args in (worker_extra_args or [])]
        self.worker_options = [dict(options)
                               for options in (worker_options or [])]
        self._say = progress or (lambda _line: None)
        self.trace_path = Path(trace_path) if trace_path is not None else None
        #: Structured fleet events (drain-poll errors, trace writes) on
        #: stderr — machine-greppable, never mixed into program output.
        self._events = StructLogger("executor")
        #: Queue of the most recent ``map`` call, for inspection/snapshots.
        self.last_queue: Optional[WorkQueue] = None
        self.respawns = 0

    @property
    def workers_share_cache(self) -> bool:
        """True when the fleet ``map`` runs actually reaches ``cache`` —
        run_campaign checks this before skipping its own cache writes.
        The inline (``workers=0``) loop and thread fleets hold the cache
        object itself; spawned worker processes only reach it through
        ``--cache``, which needs an address.  An address-less cache over
        an addressable queue (process fleet) is the orchestrator's
        private cache, not the workers'."""
        if self.cache is None:
            return False
        if self.workers == 0:
            return True  # the inline worker loop holds the object
        if (isinstance(self.transport, QueueTransport)
                and self.transport.address is None):
            return True  # thread fleet: workers share the object
        return self.cache.address is not None

    # -- transport resolution ----------------------------------------------
    def _resolve_transport(self):
        """Returns ``(transport, temp_dir)``; ``temp_dir`` is set when the
        queue lives in a per-``map`` temporary directory we must clean."""
        if isinstance(self.transport, QueueTransport):
            return self.transport, None
        if self.transport is not None:
            return transport_from_address(self.transport), None
        if self.queue_dir is not None:
            return transport_from_address(self.queue_dir), None
        temp_dir = tempfile.mkdtemp(prefix="repro-campaign-queue-")
        return transport_from_address(temp_dir), temp_dir

    # -- the executor seam -------------------------------------------------
    def map(self, fn: Callable[[JobSpec], JobResult],
            items: Sequence[JobSpec]) -> List[JobResult]:
        """Enqueue ``items``, drain them through the fleet, and return
        results in input order.  ``fn`` must be ``execute_job`` (workers
        always run it); raises ``TimeoutError`` when the queue does not
        drain in time and ``RuntimeError`` when workers cannot start."""
        if fn is not execute_job:
            raise ValueError(
                "DistributedExecutor ships JobSpecs to workers that always "
                f"run repro.campaign.jobs.execute_job; cannot map {fn!r}")
        jobs = list(items)
        if not jobs:
            return []

        transport, temp_dir = self._resolve_transport()
        queue = WorkQueue(transport=transport,
                          lease_seconds=self.lease_seconds,
                          max_attempts=self.max_attempts)
        self.last_queue = queue

        queue.enqueue_grid(jobs)
        self._say(f"enqueued {len(jobs)} jobs into "
                  f"{queue.address or transport!r} ({self.workers} workers)")

        handles: List[Any] = []
        deadline = time.monotonic() + self.timeout
        try:
            if self.workers > 0:
                handles = [self._spawn(queue, index)
                           for index in range(self.workers)]
            else:
                # Imported here, not at module top: keeps the worker module
                # out of sys.modules for `python -m ...dist.worker` runs.
                from repro.campaign.dist.worker import Worker

                Worker(queue, cache=self.cache,
                       poll_interval=self.poll_interval,
                       exit_when_drained=True, worker_id="inline",
                       deadline=deadline).run()
            self._wait_for_drain(queue, jobs, handles, deadline)
        finally:
            for handle in handles:
                if handle.poll() is None:
                    handle.terminate()
            for handle in handles:
                try:
                    handle.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    handle.kill()

        results = self._collect(queue, jobs)
        if self.trace_path is not None:
            self._write_trace(queue)
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
        return results

    # -- fleet management --------------------------------------------------
    def _spawn(self, queue: WorkQueue, index: int) -> Any:
        """Bring up worker ``index``: a process when the queue is
        addressable from outside this process, a thread otherwise."""
        if queue.address is not None:
            return self._spawn_worker_process(queue, index)
        return self._spawn_worker_thread(queue, index)

    def _worker_command(self, queue_address: str, index: int) -> List[str]:
        cmd = [sys.executable, "-m", "repro.campaign.dist.worker",
               "--queue", str(queue_address),
               "--exit-when-drained",
               "--quiet",
               "--poll-interval", str(self.poll_interval),
               "--worker-id", f"w{index}-{os.getpid()}"]
        if self.cache is not None and self.cache.address is not None:
            # By address, like the queue: a directory for filesystem
            # caches, a broker URL for transport caches.  An address-less
            # cache (in-process transport) cannot be reached from a
            # spawned process and is simply not passed along.
            cmd += ["--cache", str(self.cache.address)]
        if index < len(self.worker_extra_args):
            cmd += [str(arg) for arg in self.worker_extra_args[index]]
        return cmd

    def _spawn_worker_process(self, queue: WorkQueue,
                              index: int) -> subprocess.Popen:
        env = os.environ.copy()
        src = _src_root()
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        log_dir = queue.root if queue.root is not None else Path(
            tempfile.gettempdir())
        log_path = log_dir / f"worker-{index}.log"
        with open(log_path, "ab") as log:
            return subprocess.Popen(
                self._worker_command(queue.address, index),
                env=env, stdout=log, stderr=subprocess.STDOUT)

    def _spawn_worker_thread(self, queue: WorkQueue,
                             index: int) -> _ThreadWorkerHandle:
        from repro.campaign.dist.worker import Worker

        options: Dict[str, Any] = {
            "cache": self.cache,
            "poll_interval": self.poll_interval,
            "exit_when_drained": True,
            "worker_id": f"w{index}-t{os.getpid()}",
        }
        if index < len(self.worker_options):
            options.update(self.worker_options[index])
        return _ThreadWorkerHandle(Worker(queue, **options))

    def _wait_for_drain(self, queue: WorkQueue, jobs: List[JobSpec],
                        handles: List[Any], deadline: float) -> None:
        keys = {job.job_id for job in jobs}
        next_scavenge = 0.0
        while True:
            # Lease scavenging is throttled to half a lease period — the
            # fastest a lease can possibly expire — so the per-tick work
            # is just the terminal-listing probes below.
            now = time.monotonic()
            try:
                if now >= next_scavenge:
                    queue.requeue_expired()
                    next_scavenge = now + queue.lease_seconds / 2.0
                # Name-derived keys only: no record reads on the poll path.
                if keys <= queue.terminal_keys():
                    return
            except (OSError, TransportError) as exc:
                # A partition window or a broker restart must not kill
                # the orchestrator while workers are riding out the same
                # outage — keep polling until the drain deadline, which
                # remains the outage budget of last resort.
                self._events.event(
                    "drain-poll-error",
                    error=f"{type(exc).__name__}: {exc}")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"distributed campaign did not drain within "
                    f"{self.timeout:.0f}s: {queue!r}")
            if handles and all(h.poll() is not None for h in handles):
                # Every worker exited (crashed, starved out, or raced the
                # drain check) with work outstanding.  Respawn to finish
                # the grid — but capped: workers that can't even start
                # (broken interpreter env, unreachable queue) would
                # otherwise spawn-storm until the timeout with no
                # diagnosis.
                if self.respawns >= max(1, self.workers):
                    codes = sorted({h.poll() for h in handles})
                    where = (f" — see worker-*.log under {queue.root}"
                             if queue.root is not None else "")
                    raise RuntimeError(
                        f"all workers exited (exit codes {codes}) with work "
                        f"outstanding, after {self.respawns} respawns: "
                        f"{queue!r}{where}")
                self.respawns += 1
                self._say(f"all workers exited with work outstanding; "
                          f"respawn #{self.respawns}")
                handles.append(self._spawn(queue, len(handles)))
            time.sleep(self.poll_interval)

    def _write_trace(self, queue: WorkQueue) -> None:
        """Rebuild per-job spans from the settled result records and write
        a Chrome-trace ``trace.json`` (Perfetto / ``about:tracing``)."""
        recorder = SpanRecorder(process="campaign")
        try:
            recorder.add(spans_from_result_records(queue.result_records()))
            written = recorder.write_chrome_trace(self.trace_path)
        except (OSError, TransportError) as exc:
            # Telemetry is best-effort: a full disk or a broker dying
            # *after* the drain must not fail a campaign whose results
            # are already in hand.
            self._events.event("trace-error", path=str(self.trace_path),
                               error=f"{type(exc).__name__}: {exc}")
            return
        self._say(f"wrote {written} trace events to {self.trace_path}")
        self._events.event("trace", path=str(self.trace_path), events=written)

    # -- result collection -------------------------------------------------
    def _collect(self, queue: WorkQueue, jobs: List[JobSpec]) -> List[JobResult]:
        results = queue.results()
        dead = queue.dead()
        out: List[JobResult] = []
        for job in jobs:
            key = job.job_id
            if key in results:
                out.append(results[key])
                continue
            record = dead.get(key, {})
            out.append(JobResult(
                job_id=key, case=job.case, params=job.params, seed=job.seed,
                error=record.get("error", "dead-lettered"),
            ))
        return out

    def __repr__(self) -> str:
        return (f"DistributedExecutor(workers={self.workers}, "
                f"queue_dir={str(self.queue_dir) if self.queue_dir else None!r}, "
                f"lease_seconds={self.lease_seconds}, "
                f"max_attempts={self.max_attempts})")
