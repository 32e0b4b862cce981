"""Chaos suite: fault injection and outage tolerance on one broker.

The robustness claim of the transport stack, tested bottom-up:

* :class:`FaultPlan` / :class:`ChaosTransport` — deterministic seeded
  fault injection: error rates, one-shot failures, partition windows,
  torn writes (applied, then reported failed);
* the worker loop and the orchestrator's drain poll riding out outages;
* the acceptance property: a fleet whose one broker is partitioned
  mid-campaign *and* tears its post-enqueue writes still completes the
  full grid with exactly one execution per job key and a
  serial-identical aggregate.
"""

import threading
import time

import pytest

from repro.campaign import (
    DistributedExecutor,
    MemoryTransport,
    SerialExecutor,
    SweepSpec,
    TransportResultCache,
    run_campaign,
)
from repro.campaign.dist import (
    Broker,
    ChaosTransport,
    FaultPlan,
    HttpTransport,
    TransportError,
    WorkQueue,
)
from repro.campaign.dist.worker import Worker, main as worker_main
from repro.campaign.jobs import _CASES, execute_job
from repro.campaign.obs import MetricsRegistry, counter_total, series_value


class _Clock:
    """A hand-cranked monotonic clock for fault-plan tests."""

    def __init__(self, start: float = 0.0):
        self.t = float(start)

    def __call__(self) -> float:
        return self.t


def _chaos_nap(params, seed):
    """Deterministic metrics with a real (wall-clock) execution cost, so
    a chaos campaign is guaranteed to still be running when a scheduled
    partition window opens."""
    time.sleep(float(params.get("nap", 0.05)))
    return {"value": float(params.get("x", 0.0)) * (seed + 1)}


@pytest.fixture
def chaos_nap(monkeypatch):
    """The ``chaos-nap`` case, registered for one test only.  Its chaos
    campaigns run on thread fleets (a ``ChaosTransport`` has no address),
    so registering it in this process is enough."""
    monkeypatch.setitem(_CASES, "chaos-nap", _chaos_nap)


# -- FaultPlan: deterministic, seeded, op-scoped -----------------------------

def test_fault_plan_is_deterministic_for_seed_and_op_sequence():
    def verdicts(seed):
        plan = FaultPlan(seed=seed).error_rate(0.3)
        return [plan.decide("get_many") for _ in range(100)]

    assert verdicts(7) == verdicts(7)
    assert verdicts(7) != verdicts(8)
    assert "error" in verdicts(7)            # 0.3 over 100 draws
    assert None in verdicts(7)


def test_fault_plan_rates_are_op_scoped_and_clamped():
    plan = FaultPlan(seed=0).error_rate(5.0, "mutate_many")  # clamped to 1
    for _ in range(20):
        assert plan.decide("mutate_many", mutating=True) == "error"
        assert plan.decide("get_many") is None


def test_fault_plan_rejects_unknown_op_kinds():
    """Point ops are derived from the primitives, so a plan scoped to
    ``"put"`` or ``"get"`` would never fire — and a chaos test built on
    it would pass while injecting nothing.  Every scoping method refuses
    names outside OP_KINDS (and "*")."""
    with pytest.raises(ValueError, match="unknown op kind 'put'"):
        FaultPlan().error_rate(0.1, "put")
    with pytest.raises(ValueError, match="unknown op kind 'get'"):
        FaultPlan().torn_writes(0.1, "get")
    with pytest.raises(ValueError, match="unknown op kind 'list'"):
        FaultPlan().add_latency(0.1, "list")
    with pytest.raises(ValueError, match="unknown op kind 'cas'"):
        FaultPlan().fail_next(1, "cas")
    FaultPlan().error_rate(0.1, "*").fail_next(1, "claim_first")


def test_fault_plan_fail_next_is_one_shot_and_op_scoped():
    plan = FaultPlan(seed=0).fail_next(2, "mutate_many").fail_next(1)
    assert plan.decide("mutate_many", mutating=True) == "error"  # write #1
    assert plan.decide("mutate_many", mutating=True) == "error"  # write #2
    assert plan.decide("get_many") == "error"            # the "*" one
    assert plan.decide("mutate_many", mutating=True) is None
    assert plan.decide("get_many") is None


def test_fault_plan_partition_windows_stack_on_an_injectable_clock():
    clock = _Clock()
    plan = (FaultPlan(seed=0, clock=clock)
            .fail_between(1.0, 2.0)
            .fail_between(5.0, 6.0))
    assert plan.decide("get_many") is None
    clock.t = 1.5
    assert plan.partitioned()
    assert plan.decide("get_many") == "error"
    assert plan.decide("mutate_many", mutating=True) == "error"
    clock.t = 3.0
    assert plan.decide("get_many") is None
    clock.t = 5.0                            # second window, inclusive start
    assert plan.decide("get_many") == "error"
    clock.t = 6.0                            # exclusive stop
    assert plan.decide("get_many") is None


def test_fault_plan_torn_verdicts_only_for_mutating_ops():
    plan = FaultPlan(seed=0).torn_writes(1.0)
    for _ in range(10):
        assert plan.decide("mutate_many", mutating=True) == "torn"
        assert plan.decide("get_many", mutating=False) is None


# -- ChaosTransport: the injector itself -------------------------------------

def test_chaos_transport_is_transparent_without_faults():
    inner = MemoryTransport()
    chaos = ChaosTransport(inner, FaultPlan(seed=0))
    tag = chaos.put("jobs/a.json", b"{}")
    assert chaos.get("jobs/a.json") == (b"{}", tag)
    assert chaos.list("jobs/") == ["jobs/a.json"]
    assert chaos.list_page("jobs/", 10) == (["jobs/a.json"], None)
    assert chaos.get_many(["jobs/a.json", "jobs/nope.json"]) == [
        (b"{}", tag), None]
    assert chaos.cas("jobs/a.json", b"[]", if_match=tag) is not None
    assert chaos.delete("jobs/a.json") is True
    # Chaos lives in-process: never advertise the inner store's address.
    assert chaos.address is None


def test_chaos_transport_mirrors_optional_capabilities():
    # MemoryTransport has no server-side claim: the wrapper must not
    # invent one, or WorkQueue.claim would call a phantom endpoint
    # instead of running its client-side scan.
    plain = ChaosTransport(MemoryTransport(), FaultPlan())
    assert plain.claim_first is None
    # HttpTransport has claim_first (construction is offline).
    http = ChaosTransport(
        HttpTransport("http://chaos.invalid:1", retries=0), FaultPlan())
    assert callable(http.claim_first)


def test_chaos_error_faults_raise_before_touching_the_store():
    inner = MemoryTransport()
    registry = MetricsRegistry()
    chaos = ChaosTransport(inner,
                           FaultPlan(seed=0).fail_next(1, "mutate_many"),
                           registry=registry)
    with pytest.raises(TransportError,
                       match="chaos: injected mutate_many fault"):
        chaos.put("jobs/a.json", b"{}")
    assert inner.get("jobs/a.json") is None          # never applied
    assert chaos.put("jobs/a.json", b"{}")           # one-shot spent
    snapshot = registry.snapshot()
    assert series_value(snapshot, "counters", "chaos_faults_total",
                        op="mutate_many", kind="error") == 1.0


def test_chaos_torn_write_applies_then_reports_failure():
    inner = MemoryTransport()
    registry = MetricsRegistry()
    chaos = ChaosTransport(inner,
                           FaultPlan(seed=0).torn_writes(1.0, "mutate_many"),
                           registry=registry)
    with pytest.raises(TransportError, match="torn mutate_many"):
        chaos.put("jobs/a.json", b"{}")
    # The nastiest failure mode: the write landed, the caller was lied to.
    assert inner.get("jobs/a.json") is not None
    snapshot = registry.snapshot()
    assert series_value(snapshot, "counters", "chaos_faults_total",
                        op="mutate_many", kind="torn") == 1.0


def test_chaos_added_latency_delays_the_op():
    chaos = ChaosTransport(MemoryTransport(),
                           FaultPlan(seed=0).add_latency(0.05, "get_many"))
    chaos.put("jobs/a.json", b"{}")          # puts not slowed
    start = time.perf_counter()
    chaos.get("jobs/a.json")
    assert time.perf_counter() - start >= 0.04


def test_chaos_queue_roundtrip_without_faults():
    """A fault-free ChaosTransport is protocol-complete: the queue's full
    enqueue / claim / complete cycle runs through it unchanged."""
    queue = WorkQueue(transport=ChaosTransport(MemoryTransport(),
                                               FaultPlan(seed=0)))
    spec = SweepSpec(name="chaos-rt", case="synthetic", base={"rate": 140.0},
                     grid={"tasks": [5, 9]})
    queue.enqueue_grid(spec.expand())
    settled = 0
    while True:
        item = queue.claim("w0")
        if item is None:
            break
        queue.complete(item, execute_job(item.job))
        settled += 1
    assert settled == 2
    assert queue.drained()


# -- worker loop outage tolerance --------------------------------------------

def test_worker_chaos_survives_transient_transport_errors():
    store = MemoryTransport()
    WorkQueue(transport=store).enqueue_grid(
        SweepSpec(name="chaos-worker", case="synthetic",
                  base={"rate": 140.0}, grid={"tasks": [5, 9]}).expand())
    plan = FaultPlan(seed=0)
    queue = WorkQueue(transport=ChaosTransport(store, plan))
    plan.fail_next(3)                        # three dropped requests
    worker = Worker(queue, worker_id="chaos-w", poll_interval=0.01,
                    exit_when_drained=True, max_outage=10.0)
    assert worker.run() == 2
    assert queue.drained()


def test_worker_chaos_zero_outage_budget_fails_fast():
    plan = FaultPlan(seed=0)
    queue = WorkQueue(transport=ChaosTransport(MemoryTransport(), plan))
    plan.fail_next(1)
    worker = Worker(queue, poll_interval=0.01, exit_when_drained=True,
                    max_outage=0.0)
    with pytest.raises(TransportError):
        worker.run()


def test_worker_chaos_sustained_outage_exhausts_the_budget():
    plan = FaultPlan(seed=0)
    queue = WorkQueue(transport=ChaosTransport(MemoryTransport(), plan))
    plan.error_rate(1.0)                     # never heals
    worker = Worker(queue, poll_interval=0.01, exit_when_drained=True,
                    max_outage=0.3)
    start = time.monotonic()
    with pytest.raises(TransportError):
        worker.run()
    assert time.monotonic() - start >= 0.3   # it did retry for the budget


def test_worker_cli_chaos_survives_broker_dropping_requests():
    """Regression: a broker dropping requests mid-loop used to surface as
    exit code 3 on the first error.  With
    ``force_close`` the broker tears down *every* connection after one
    reply, and ``--transport-retries 0`` surfaces each drop to the loop —
    the worker must still drain the grid and exit 0."""
    spec = SweepSpec(name="chaos-cli", case="synthetic",
                     base={"rate": 140.0}, grid={"tasks": [5, 9, 17]})
    broker = Broker().start()
    try:
        queue = WorkQueue(
            transport=HttpTransport(broker.url, retries=2, retry_delay=0.05))
        queue.enqueue_grid(spec.expand())
        broker.dialect.force_close = True
        rc = worker_main(["--queue", broker.url, "--worker-id", "chaos-w0",
                          "--transport-retries", "0",
                          "--max-outage", "30", "--poll-interval", "0.02",
                          "--exit-when-drained", "--quiet"])
        broker.dialect.force_close = False
        assert rc == 0
        counts = queue.counts()
        assert counts["done"] == 3 and counts["pending"] == 0
    finally:
        broker.stop()


def test_worker_cli_chaos_zero_budget_still_exits_3():
    """The fail-fast contract survives: with ``--max-outage 0`` the first
    mid-loop transport error is still exit code 3."""
    spec = SweepSpec(name="chaos-cli-3", case="synthetic",
                     base={"rate": 140.0}, grid={"tasks": [5]})
    broker = Broker().start()
    try:
        queue = WorkQueue(
            transport=HttpTransport(broker.url, retries=2, retry_delay=0.05))
        queue.enqueue_grid(spec.expand())
        broker.dialect.force_close = True
        rc = worker_main(["--queue", broker.url,
                          "--transport-retries", "0", "--max-outage", "0",
                          "--poll-interval", "0.02",
                          "--exit-when-drained", "--quiet"])
        broker.dialect.force_close = False
        assert rc == 3
    finally:
        broker.stop()


# -- orchestrator riding out a window ----------------------------------------

def test_executor_chaos_drain_poll_rides_out_a_partition_window(chaos_nap):
    """The orchestrator's drain loop keeps polling through a transport
    outage instead of dying on the first failed listing."""
    spec = SweepSpec(name="chaos-drain", case="chaos-nap",
                     base={"nap": 0.05}, grid={"x": [1, 2, 3, 4, 5, 6]})
    serial = run_campaign(spec, executor=SerialExecutor())
    start = time.monotonic()
    plan = FaultPlan(seed=3).fail_between(start + 0.1, start + 0.5)
    executor = DistributedExecutor(
        transport=ChaosTransport(MemoryTransport(), plan),
        workers=2, lease_seconds=10.0, poll_interval=0.02, timeout=120.0)
    distributed = run_campaign(spec, executor=executor)
    assert distributed.ok, distributed.failures
    assert (serial.aggregate_fingerprint()
            == distributed.aggregate_fingerprint())


# -- the acceptance property -------------------------------------------------

def test_chaos_partitioned_broker_completes_grid_exactly_once(monkeypatch,
                                                              chaos_nap):
    """The headline chaos acceptance: the fleet's one broker disappears
    behind a partition window mid-campaign *and* tears half its
    post-enqueue writes — settles, requeues, heartbeats (applied, then
    reported failed).  The fleet must still complete the full grid with
    exactly one execution per job key and a serial-identical aggregate,
    no job lost or dead-lettered."""
    from repro.campaign.dist import worker as worker_mod

    spec = SweepSpec(name="chaos-acceptance", case="chaos-nap",
                     base={"nap": 0.1},
                     grid={"x": [float(i) for i in range(12)]})
    jobs = spec.expand()
    serial = run_campaign(spec, executor=SerialExecutor())

    lock = threading.Lock()
    executions = {}
    real_execute = worker_mod.execute_job

    def counting_execute(job):
        with lock:
            executions[job.job_id] = executions.get(job.job_id, 0) + 1
        return real_execute(job)

    monkeypatch.setattr(worker_mod, "execute_job", counting_execute)

    broker = Broker().start()
    chaos_registry = MetricsRegistry()
    try:
        start = time.monotonic()
        plan = FaultPlan(seed=17).fail_between(start + 0.3, start + 1.5)
        # Every write is a mutate_many, and neither the enqueue nor the
        # queue.json create ever tolerated a torn write: tearing starts
        # once enqueue_grid returns.  Settles, requeues and heartbeats
        # still tear.
        real_enqueue_grid = WorkQueue.enqueue_grid

        def enqueue_then_tear(queue, *args, **kwargs):
            names = real_enqueue_grid(queue, *args, **kwargs)
            plan.torn_writes(0.5, "mutate_many")
            return names

        monkeypatch.setattr(WorkQueue, "enqueue_grid", enqueue_then_tear)
        transport = ChaosTransport(
            HttpTransport(broker.url, retries=2, retry_delay=0.05),
            plan, registry=chaos_registry)
        # The chaos wrapper is address-less by design, so the executor
        # spawns a *thread* fleet sharing this very wrapper (a spawned
        # process would be handed the inner URL and bypass the chaos).
        assert transport.address is None
        cache = TransportResultCache(MemoryTransport())  # un-chaos'd dedup
        executor = DistributedExecutor(
            transport=transport, workers=2, cache=cache,
            lease_seconds=10.0, poll_interval=0.02, timeout=120.0)
        distributed = run_campaign(spec, executor=executor, cache=cache)

        assert distributed.ok, distributed.failures
        assert len(distributed) == 12
        assert (serial.aggregate_fingerprint()
                == distributed.aggregate_fingerprint())
        assert serial.rows() == distributed.rows()
        # Exactly-once: the census, not just the settled records.
        assert executions == {job.job_id: 1 for job in jobs}

        queue = executor.last_queue
        counts = queue.counts()
        assert counts["done"] == 12 and counts["dead"] == 0
        assert len(queue.result_records()) == 12
        # The window really injected faults through the wrapper.
        assert counter_total(chaos_registry.snapshot(),
                             "chaos_faults_total") > 0
        transport.close()
    finally:
        broker.stop()
