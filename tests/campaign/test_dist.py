"""Acceptance tests of the distributed campaign subsystem.

The headline property: a real-workload grid run through
``DistributedExecutor`` with a worker fleet — *including a worker that
crashes mid-job* — yields aggregates bit-identical to ``SerialExecutor``,
and it does so over every queue transport: the shared-filesystem
directory, the in-process memory store (thread fleets) and the HTTP
broker.  The parametrized crash suite is the proof that the transport
seam is real — the queue state machine cannot tell the backends apart.

The 12-job grid sweeps the platform itself (OST counts × page-cache sizes
× device bandwidths): every job drives concurrent readers through the full
POSIX/VFS/page-cache/Lustre simulation stack — the paper's Kebnekaise
storage model — while staying milliseconds-scale, so the fleet tests keep
tier-1 fast.
"""

import threading

import pytest

from repro.campaign import (
    DistributedExecutor,
    MemoryTransport,
    ResultCache,
    SerialExecutor,
    SweepSpec,
    TransportResultCache,
    open_cache,
    run_campaign,
    snapshot_campaign,
)
from repro.campaign.dist import Broker, WorkQueue
from repro.campaign.jobs import execute_job
from repro.workloads import platform_grid_spec

#: 3 x 2 x 2 = 12 real-simulation jobs (full storage/OS stack per job).
PLATFORM_SPEC = platform_grid_spec(
    osts=(1, 2, 8),
    page_cache_gib=(0.03125, 8.0),
    bandwidth_scales=(0.5, 2.0),
    files=8, file_kib=8192, readers=4,
    seed=13,
)


def _synthetic_spec(**overrides):
    kwargs = dict(name="dist-synth", case="synthetic", base={"rate": 140.0},
                  grid={"workers": [1, 2], "tasks": [5, 9, 17, 33]})
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture(scope="module")
def platform_serial():
    """One serial run of the platform grid, shared by every transport leg."""
    result = run_campaign(PLATFORM_SPEC, executor=SerialExecutor())
    assert result.ok, result.failures
    return result


@pytest.fixture(params=["fs", "memory", "http"])
def crash_fleet(request, tmp_path):
    """Executor kwargs for a 2-worker fleet whose worker #1 crashes on
    its first claim, per transport: process fleets hard-exit
    (``os._exit`` via the worker CLI), the in-process thread fleet
    abandons its claim (``WorkerCrash``) — both leave a dangling lease.

    The first claim, not a later one: each job after a worker's cold
    first job takes ~10 ms, so a sibling whose first job ends ~0.1 s
    sooner can drain the grid before a later crash threshold is ever
    reached, and the crash would never happen."""
    if request.param == "fs":
        yield dict(queue_dir=tmp_path / "queue",
                   worker_extra_args=[(), ("--crash-after-claims", "1")])
    elif request.param == "memory":
        yield dict(transport=MemoryTransport(),
                   worker_options=[{}, {"crash_after_claims": 1,
                                        "crash_mode": "abandon"}])
    else:
        broker = Broker(data_dir=tmp_path / "broker").start()
        try:
            yield dict(transport=broker.url,
                       worker_extra_args=[(), ("--crash-after-claims", "1")])
        finally:
            broker.stop()


# -- the acceptance property -----------------------------------------------

def test_distributed_fleet_with_worker_crash_matches_serial(crash_fleet,
                                                            platform_serial):
    """12 real-workload jobs, 2 workers, one injected crash mid-job: the
    lease expires, the job requeues, the surviving worker finishes the
    grid, and the aggregate equals the serial run exactly — identically
    over the filesystem, memory and HTTP transports."""
    assert PLATFORM_SPEC.job_count == 12
    executor = DistributedExecutor(
        workers=2,
        lease_seconds=1.0,      # short lease => fast crash recovery
        poll_interval=0.05,
        timeout=300.0,
        **crash_fleet,
    )
    distributed = run_campaign(PLATFORM_SPEC, executor=executor)

    assert distributed.ok, distributed.failures
    assert len(distributed) == 12
    assert distributed.executor == "distributed"
    assert (platform_serial.aggregate_fingerprint()
            == distributed.aggregate_fingerprint())
    assert platform_serial.rows() == distributed.rows()

    queue = executor.last_queue
    assert queue is not None
    counts = queue.counts()
    assert counts["done"] == 12
    assert counts["dead"] == 0
    # Prove the crash + recovery actually happened: the raw result records
    # carry the settling attempt number, so the job the crashed worker was
    # holding must have completed on attempt >= 2, by a different worker.
    records = list(queue.result_records().values())
    attempts = [record["attempts"] for record in records]
    assert max(attempts) >= 2, attempts
    crashed = [r for r in records if r["attempts"] >= 2]
    assert all(not r["worker"].startswith("w1-") for r in crashed)


def test_broker_fleet_dedups_through_broker_cache_under_crash(platform_serial):
    """The no-shared-filesystem story, end to end: worker *processes*
    reach both the queue and the result cache purely through one broker
    URL (``--queue http://B --cache http://B``), the broker's store is
    in-memory — there is no shared directory anywhere — and with a worker
    crashing mid-grid the fleet still executes each job key at most once
    and reproduces the serial aggregate bit-for-bit.  A second fleet over
    a wiped queue then serves *every* job from the broker cache: the
    dedup layer, not the queue, is what remembered the work."""
    broker = Broker().start()  # memory-backed: nothing touches a disk
    try:
        cache = open_cache(broker.url)
        executor = DistributedExecutor(
            workers=2, transport=broker.url, cache=cache,
            lease_seconds=1.0, poll_interval=0.05, timeout=300.0,
            worker_extra_args=[(), ("--crash-after-claims", "1")])
        distributed = run_campaign(PLATFORM_SPEC, executor=executor,
                                   cache=cache)
        assert distributed.ok, distributed.failures
        assert (platform_serial.aggregate_fingerprint()
                == distributed.aggregate_fingerprint())

        records = executor.last_queue.result_records()
        assert len(records) == 12
        # ≤1 execution per job key: every settled record is a fresh
        # execution and there is exactly one record per key — the crashed
        # claim was re-run by the survivor (attempts >= 2), not doubled.
        assert all(not record["cached"] for record in records.values())
        assert max(record["attempts"] for record in records.values()) >= 2
        assert len(cache) == 12

        # Phase 2: erase the queue's memory of the campaign, keep the
        # cache, and drain the same grid with a fresh fleet.  Every job
        # must come back cache-served through the broker — no shared
        # filesystem ever existed for the workers to dedup through.
        transport = executor.last_queue.transport
        for prefix in ("jobs/", "pending/", "claims/", "results/",
                       "done/", "dead/", "queue"):
            for key in transport.list(prefix):
                transport.delete(key)
        executor2 = DistributedExecutor(
            workers=2, transport=broker.url, cache=cache,
            lease_seconds=5.0, poll_interval=0.05, timeout=300.0)
        results = executor2.map(execute_job, PLATFORM_SPEC.expand())
        assert all(result.cached for result in results)
        assert ([r.metrics for r in results]
                == [r.metrics for r in platform_serial])
        assert len(cache) == 12  # no re-executions, no new records
    finally:
        broker.stop()


def test_thread_fleet_executes_each_job_exactly_once_without_any_fs(
        monkeypatch):
    """Property: N thread-fleet workers × one grid over MemoryTransport
    (queue *and* cache) execute every job key exactly once, reproduce the
    serial aggregate, and a second fleet over the warm cache adds zero
    executions — with no filesystem anywhere (both stores are address-less
    in-process transports)."""
    from repro.campaign.dist import worker as worker_mod

    spec = _synthetic_spec()
    serial = run_campaign(spec, executor=SerialExecutor())

    lock = threading.Lock()
    executions = {}
    real_execute = worker_mod.execute_job

    def counting_execute(job):
        with lock:
            executions[job.job_id] = executions.get(job.job_id, 0) + 1
        return real_execute(job)

    monkeypatch.setattr(worker_mod, "execute_job", counting_execute)
    cache = TransportResultCache(MemoryTransport())
    assert cache.root is None and cache.address is None

    executor = DistributedExecutor(transport=MemoryTransport(), workers=4,
                                   cache=cache, lease_seconds=5.0,
                                   poll_interval=0.01, timeout=120.0)
    distributed = run_campaign(spec, executor=executor, cache=cache)
    assert distributed.ok, distributed.failures
    assert (serial.aggregate_fingerprint()
            == distributed.aggregate_fingerprint())
    assert executions == {job.job_id: 1 for job in spec.expand()}

    # A second fleet (fresh queue, same in-memory cache): all served, the
    # execution census does not move.
    executor2 = DistributedExecutor(transport=MemoryTransport(), workers=4,
                                    cache=cache, lease_seconds=5.0,
                                    poll_interval=0.01, timeout=120.0)
    results = executor2.map(execute_job, spec.expand())
    assert all(result.cached for result in results)
    assert executions == {job.job_id: 1 for job in spec.expand()}
    assert len(cache) == len(spec.expand())


def test_orchestrator_persists_when_process_fleet_cannot_reach_cache(tmp_path):
    """A *process* fleet given an address-less (in-memory) cache cannot
    probe it — no --cache can name it.  run_campaign must then keep its
    own cache writes rather than trusting the workers: dedup falls back
    to the orchestrator instead of silently vanishing."""
    spec = _synthetic_spec()
    cache = TransportResultCache(MemoryTransport())
    executor = DistributedExecutor(queue_dir=tmp_path / "queue", workers=2,
                                   cache=cache, poll_interval=0.05,
                                   timeout=120.0)
    assert not executor.workers_share_cache
    first = run_campaign(spec, executor=executor, cache=cache)
    assert first.ok, first.failures
    assert len(cache) == len(spec.expand())  # the orchestrator persisted
    second = run_campaign(spec, cache=cache)
    assert second.cache_hits == len(spec.expand())


def test_incremental_aggregation_over_half_drained_queue(tmp_path):
    """A partially drained grid is already queryable: completed jobs
    aggregate in deterministic order, and pending/running/failed are
    accounted explicitly."""
    spec = _synthetic_spec()
    jobs = spec.expand()
    assert len(jobs) == 8
    serial = run_campaign(spec, executor=SerialExecutor())

    queue = WorkQueue(tmp_path / "queue", lease_seconds=30.0, max_attempts=1)
    queue.enqueue_grid(jobs)

    # Drain three jobs, dead-letter one (max_attempts=1 buries the first
    # fail), leave one claimed/running and four untouched.
    for _ in range(3):
        item = queue.claim("drainer")
        queue.complete(item, execute_job(item.job))
    assert queue.fail(queue.claim("failer"), "injected failure") == "dead"
    running_item = queue.claim("runner")
    assert running_item is not None

    snap = snapshot_campaign(spec, queue)
    assert snap.total == 8
    assert snap.done == 3
    assert len(snap.failed) == 1
    assert len(snap.running) == 1
    assert len(snap.pending) == 3
    assert not snap.complete
    assert snap.progress == pytest.approx(4 / 8)
    meta = snap.result.meta["incremental"]
    assert meta == {"total": 8, "done": 3, "pending": 3, "running": 1,
                    "failed": 1}

    # The partial aggregate matches the serial run on the completed subset.
    serial_by_id = {r.job_id: r for r in serial}
    for result in snap.result:
        assert result.metrics == serial_by_id[result.job_id].metrics
    # Table/series machinery works on the partial result unchanged.
    assert len(snap.result.rows()) == 3
    assert "3/8 done" in snap.summary()

    # Finishing the rest closes the books.
    queue.complete(running_item, execute_job(running_item.job))
    while True:
        item = queue.claim("drainer")
        if item is None:
            break
        queue.complete(item, execute_job(item.job))
    final = snapshot_campaign(spec, queue)
    assert final.complete
    assert final.done == 7  # the dead-lettered job stays failed
    assert final.failed == snap.failed
    assert final.progress == 1.0


# -- fleet mechanics at tier-1 scale ---------------------------------------

def test_inline_distributed_executor_matches_serial(tmp_path):
    """workers=0: the whole queue protocol without process spawns."""
    spec = _synthetic_spec()
    serial = run_campaign(spec, executor=SerialExecutor())
    distributed = run_campaign(
        spec, executor=DistributedExecutor(queue_dir=tmp_path / "queue",
                                           workers=0))
    assert (serial.aggregate_fingerprint()
            == distributed.aggregate_fingerprint())


def test_thread_fleet_over_memory_transport_matches_serial():
    """An address-less transport runs the fleet as threads: no process
    spawns, no directories, same aggregates."""
    spec = _synthetic_spec()
    serial = run_campaign(spec, executor=SerialExecutor())
    executor = DistributedExecutor(transport=MemoryTransport(), workers=2,
                                   lease_seconds=5.0, poll_interval=0.01,
                                   timeout=120.0)
    distributed = run_campaign(spec, executor=executor)
    assert (serial.aggregate_fingerprint()
            == distributed.aggregate_fingerprint())
    assert executor.respawns == 0


def test_workers_deduplicate_through_shared_cache(tmp_path):
    """A fleet pointed at a warm shared cache serves every job from it."""
    spec = _synthetic_spec()
    cache = ResultCache(tmp_path / "cache")
    first = run_campaign(spec, executor=SerialExecutor(), cache=cache)

    executor = DistributedExecutor(queue_dir=tmp_path / "queue", workers=0,
                                   cache=cache)
    # Bypass run_campaign's own cache probe: the *workers* must dedupe.
    results = executor.map(execute_job, spec.expand())
    assert all(result.cached for result in results)
    assert [r.metrics for r in results] == [r.metrics for r in first]


def test_worker_requires_execute_job():
    with pytest.raises(ValueError):
        DistributedExecutor(workers=0).map(lambda job: job, [1, 2])


def test_worker_loop_settles_workload_errors_without_retry(tmp_path):
    """workers=0 run of a grid with a deterministically failing job: the
    error result settles as completed (same contract as in-process
    executors), consuming no retry attempts."""
    spec = _synthetic_spec(grid={"workers": [0, 1]})  # workers=0 raises
    serial = run_campaign(spec, executor=SerialExecutor())
    distributed = run_campaign(
        spec, executor=DistributedExecutor(queue_dir=tmp_path / "queue",
                                           workers=0))
    assert not distributed.ok
    assert len(distributed.failures) == 1
    assert (serial.aggregate_fingerprint()
            == distributed.aggregate_fingerprint())
    assert distributed.failures[0].error == serial.failures[0].error
    assert WorkQueue(tmp_path / "queue").counts()["dead"] == 0


def test_snapshot_reports_expired_lease_claims_as_pending(tmp_path):
    """A crashed fleet must not look healthy: a claim whose lease has
    expired is requeueable work, so the snapshot counts it pending (even
    before a scavenger moves the ticket)."""
    clock = [1000.0]
    spec = _synthetic_spec()
    queue = WorkQueue(tmp_path / "queue", lease_seconds=10.0,
                      clock=lambda: clock[0])
    queue.enqueue_grid(spec.expand())
    assert queue.claim("doomed-worker") is not None

    live = snapshot_campaign(spec, queue)
    assert len(live.running) == 1 and len(live.pending) == 7

    clock[0] += 11.0  # the worker died; its lease lapses
    stalled = snapshot_campaign(spec, queue)
    assert stalled.running == []
    assert len(stalled.pending) == 8


def test_inline_map_times_out_on_foreign_lease(tmp_path):
    """workers=0 with a job held by an external worker that never finishes:
    map() must honour its timeout instead of spinning forever."""
    spec = _synthetic_spec(grid={"workers": [1], "tasks": [5]})
    queue = WorkQueue(tmp_path / "queue", lease_seconds=3600.0)
    queue.enqueue_grid(spec.expand())
    assert queue.claim("external-worker") is not None  # never settles

    executor = DistributedExecutor(queue_dir=tmp_path / "queue", workers=0,
                                   poll_interval=0.01, timeout=0.3)
    with pytest.raises(TimeoutError):
        executor.map(execute_job, spec.expand())


def test_unstartable_workers_fail_fast_with_diagnosis(tmp_path, monkeypatch):
    """Workers that die on startup must not spawn-storm until the timeout:
    the executor caps respawns and raises with the exit codes."""
    import sys

    spec = _synthetic_spec(grid={"workers": [1]})
    executor = DistributedExecutor(queue_dir=tmp_path / "queue", workers=2,
                                   poll_interval=0.02, timeout=60.0)
    monkeypatch.setattr(
        DistributedExecutor, "_worker_command",
        lambda self, address, index: [sys.executable, "-c",
                                      "import sys; sys.exit(3)"])
    with pytest.raises(RuntimeError, match=r"exit codes \[3\]"):
        executor.map(execute_job, spec.expand())
    assert executor.respawns <= executor.workers


def test_unknown_case_dead_letters_after_retries(tmp_path):
    """A job no worker can even start (unknown case) exhausts its attempts
    and surfaces as a dead-lettered failure in the campaign result."""
    spec = SweepSpec(name="nope", case="does-not-exist", grid={"x": [1]})
    queue_dir = tmp_path / "queue"
    executor = DistributedExecutor(queue_dir=queue_dir, workers=0,
                                   max_attempts=2)
    result = run_campaign(spec, executor=executor)
    assert not result.ok
    assert "UnknownCaseError" in result.failures[0].error
    assert WorkQueue(queue_dir).counts()["dead"] == 1
