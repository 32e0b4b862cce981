"""Chaos and failover suite: fault injection, breakers, degraded fleets.

The robustness claim of the sharded transport stack, tested bottom-up:

* :class:`CircuitBreaker` — the three-state machine, on a fake clock
  (no sleeps, every transition asserted);
* :class:`FaultPlan` / :class:`ChaosTransport` — deterministic seeded
  fault injection: error rates, one-shot failures, partition windows,
  torn writes (applied, then reported failed);
* :class:`ShardedTransport` under chaos — breakers trip and shed,
  half-open probes reclose, reads degrade honestly (tagged partials,
  never a silent partial view), claims skip dead shards;
* the worker loop and the ``dist.stats`` dashboard riding out outages;
* the acceptance property: a 2-shard broker fleet with one shard
  partitioned mid-campaign *and* tearing its post-enqueue writes still
  completes the full grid with exactly one execution per job key and a
  serial-identical aggregate, while the flapping shard's breaker shows
  trip -> half-open -> reclose.
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
    snapshot_campaign,
)
from repro.campaign.dist import (
    Broker,
    ChaosTransport,
    CircuitBreaker,
    DegradedResult,
    EpochMismatch,
    FaultPlan,
    HttpTransport,
    ShardedTransport,
    TransportError,
    WorkQueue,
    is_degraded,
)
from repro.campaign.dist.breaker import CLOSED, HALF_OPEN, OPEN
from repro.campaign.dist.worker import Worker, main as worker_main
from repro.campaign.jobs import execute_job, register_case
from repro.campaign.obs import MetricsRegistry, counter_total, series_value


class _Clock:
    """A hand-cranked monotonic clock for breaker / fault-plan tests."""

    def __init__(self, start: float = 0.0):
        self.t = float(start)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _key_on(router: ShardedTransport, index: int,
            prefix: str = "jobs/") -> str:
    """Some ``.json`` key the router maps to shard ``index``."""
    for i in range(512):
        key = f"{prefix}chaos-{i}.json"
        if router.shard_index(key) == index:
            return key
    raise AssertionError(f"no key found for shard {index}")


@register_case("chaos-nap")
def _chaos_nap(params, seed):
    """Deterministic metrics with a real (wall-clock) execution cost, so
    a chaos campaign is guaranteed to still be running when a scheduled
    partition window opens."""
    time.sleep(float(params.get("nap", 0.05)))
    return {"value": float(params.get("x", 0.0)) * (seed + 1)}


# -- CircuitBreaker state machine (fake clock, no sleeps) --------------------

def test_breaker_trips_after_threshold_consecutive_failures():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=5.0,
                             clock=clock)
    assert breaker.state == CLOSED
    assert breaker.record_failure() == CLOSED
    assert breaker.record_failure() == CLOSED
    # A success between failures resets the consecutive count.
    assert breaker.record_success() == CLOSED
    assert breaker.failures == 0
    assert breaker.record_failure() == CLOSED
    assert breaker.record_failure() == CLOSED
    assert breaker.record_failure() == OPEN
    assert breaker.allow() is False


def test_breaker_open_sheds_until_cooldown_then_admits_one_probe():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0,
                             clock=clock)
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.advance(4.9)
    assert breaker.allow() is False          # still cooling down
    clock.advance(0.2)
    assert breaker.allow() is True           # the single half-open probe
    assert breaker.state == HALF_OPEN
    assert breaker.allow() is False          # everyone else keeps shedding
    assert breaker.allow() is False
    assert breaker.record_success() == CLOSED
    assert breaker.failures == 0
    assert breaker.allow() is True


def test_breaker_failed_probe_reopens_with_a_fresh_cooldown():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0,
                             clock=clock)
    breaker.record_failure()                 # trips at t=0
    clock.advance(5.0)
    assert breaker.allow() is True           # probe admitted at t=5
    assert breaker.record_failure() == OPEN  # probe failed: reopen at t=5
    clock.advance(4.9)
    assert breaker.allow() is False          # fresh cooldown from t=5
    clock.advance(0.2)
    assert breaker.allow() is True


def test_breaker_state_property_is_side_effect_free():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=1.0,
                             clock=clock)
    breaker.record_failure()
    clock.advance(10.0)
    # Reading state must not admit the probe on the reader's behalf.
    assert breaker.state == OPEN
    assert breaker.state == OPEN
    assert breaker.allow() is True
    assert breaker.state == HALF_OPEN


def test_breaker_threshold_clamped_to_at_least_one():
    breaker = CircuitBreaker(failure_threshold=0, cooldown_seconds=1.0,
                             clock=_Clock())
    assert breaker.failure_threshold == 1
    assert breaker.record_failure() == OPEN


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
    # invent one, or the sharded router would trust a phantom endpoint.
    plain = ChaosTransport(MemoryTransport(), FaultPlan())
    assert plain.claim_first is None
    # HttpTransport has claim_first and stats (construction is offline).
    http = ChaosTransport(
        HttpTransport("http://chaos.invalid:1", retries=0), FaultPlan())
    assert callable(http.claim_first)
    assert callable(http.stats)


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


# -- ShardedTransport under chaos: breakers ----------------------------------

def _chaotic_pair(plan, clock, breaker_failures=2, cooldown=5.0,
                  degraded_reads=False, registry=None):
    """A 2-shard router whose shard 1 is behind a ChaosTransport."""
    inner = MemoryTransport()
    shards = [MemoryTransport(), ChaosTransport(inner, plan)]
    router = ShardedTransport(shards, breaker_failures=breaker_failures,
                              breaker_cooldown=cooldown,
                              breaker_clock=clock,
                              degraded_reads=degraded_reads,
                              registry=registry)
    return router, inner


def test_sharded_breaker_trips_sheds_and_recloses_after_probe():
    clock = _Clock()
    plan = FaultPlan(seed=0).error_rate(1.0)
    registry = MetricsRegistry()
    router, inner = _chaotic_pair(plan, clock, breaker_failures=2,
                                  registry=registry)
    key = _key_on(router, 1)
    for _ in range(2):
        with pytest.raises(TransportError, match="chaos: injected"):
            router.put(key, b"{}")
    assert router.breakers[1].state == OPEN
    assert ("shard-1", "closed", "open") in list(router.breaker_events)
    # Open circuit: the op is shed instantly, naming the shard, without
    # the injector (or any network) being touched.
    with pytest.raises(TransportError,
                       match="shard shard-1 circuit is open"):
        router.put(key, b"{}")
    snapshot = registry.snapshot()
    assert series_value(snapshot, "counters", "shard_ops_shed_total",
                        op="mutate_many", shard="shard-1") == 1.0
    assert series_value(snapshot, "gauges", "shard_breaker_state",
                        shard="shard-1") == 2.0

    # Heal the shard, crank past the cooldown: the next admitted op is
    # the half-open probe, and its success recloses the breaker.
    plan.error_rate(0.0)
    clock.advance(5.5)
    assert router.put(key, b"{}")
    assert router.breakers[1].state == CLOSED
    events = [event for event in router.breaker_events
              if event[0] == "shard-1"]
    assert events == [("shard-1", "closed", "open"),
                      ("shard-1", "open", "half-open"),
                      ("shard-1", "half-open", "closed")]
    assert series_value(registry.snapshot(), "gauges",
                        "shard_breaker_state", shard="shard-1") == 0.0
    # The healed shard actually holds the write (epoch stamp included).
    assert inner.get(key) is not None


def test_sharded_breaker_healthy_shard_unaffected_by_dead_sibling():
    """Ops routed to the healthy shard keep working while the dead
    sibling's breaker counts failures — the epoch sweep tolerates an
    unreachable shard instead of poisoning the fleet."""
    clock = _Clock()
    plan = FaultPlan(seed=0).error_rate(1.0)
    router, _ = _chaotic_pair(plan, clock, breaker_failures=1)
    healthy_key = _key_on(router, 0)
    assert router.put(healthy_key, b"{}")    # sweeps the fleet, succeeds
    assert router.get(healthy_key) is not None
    assert router.breakers[0].state == CLOSED
    # The sweep's failed stamp of shard 1 was breaker-counted, not raised.
    assert router.breakers[1].failures >= 1
    assert router.shards_reporting() == (1, 2)
    assert router.degraded_shards() == ["shard-1"]


def test_sharded_epoch_mismatch_is_config_error_never_breaker_counted():
    """Satellite: 'shard unreachable' (retryable, breaker territory) vs
    'epoch mismatch' (config error, fail fast) are distinct failures."""
    shards = [MemoryTransport(), MemoryTransport()]
    ShardedTransport(shards).put("jobs/a.json", b"{}")   # stamp 2-fleet
    grown = ShardedTransport(shards + [MemoryTransport()])
    assert issubclass(EpochMismatch, TransportError)
    for _ in range(8):                       # never shed, never retried away
        with pytest.raises(EpochMismatch, match="different fleet epoch"):
            grown.get("jobs/a.json")
    assert all(breaker.state == CLOSED for breaker in grown.breakers)
    assert all(breaker.failures == 0 for breaker in grown.breakers)
    assert grown.shards_reporting() == (3, 3)


# -- ShardedTransport under chaos: degraded reads ----------------------------

def test_sharded_degraded_reads_tag_partials_strict_reads_raise(
        monkeypatch):
    # Small pages: the derived list() must carry missing_shards across
    # every page of its list_page walk, not just report the last one.
    monkeypatch.setattr("repro.campaign.dist.transport.MAX_LIST_PAGE", 3)
    clock = _Clock()
    plan = FaultPlan(seed=0)
    router, _ = _chaotic_pair(plan, clock, degraded_reads=True)
    keys = sorted(f"p/{i:03d}.json" for i in range(16))
    for key in keys:
        router.put(key, b"{}")
    shard0_keys = [key for key in keys if router.shard_index(key) == 0]
    assert len(keys) > len(shard0_keys) > 3

    plan.error_rate(1.0)
    listing = router.list("p/")
    assert is_degraded(listing)
    assert listing.missing_shards == ["shard-1"]
    assert list(listing) == shard0_keys      # the reachable merge, honest
    page, _ = router.list_page("p/", 100)
    assert is_degraded(page)
    got = router.get_many(keys)
    assert is_degraded(got)
    assert [keys[i] for i, item in enumerate(got)
            if item is not None] == shard0_keys

    # Strict mode (the default) refuses the partial view outright.
    strict, _ = _chaotic_pair(FaultPlan(seed=0).error_rate(1.0), _Clock())
    strict.put(_key_on(strict, 0), b"{}")
    with pytest.raises(TransportError):
        strict.list("p/")


def test_sharded_degraded_reads_raise_when_every_shard_is_down():
    plan = FaultPlan(seed=0).error_rate(1.0)
    inner0, inner1 = MemoryTransport(), MemoryTransport()
    router = ShardedTransport(
        [ChaosTransport(inner0, plan), ChaosTransport(inner1, plan)],
        degraded_reads=True, breaker_failures=100)
    with pytest.raises(TransportError, match="shards unreachable"):
        router.list("p/")


def test_degraded_breaker_queue_refuses_to_report_drained():
    """A fleet with an unreadable shard must never look drained: reporting
    empty from a partial listing is how results get lost."""
    clock = _Clock()
    plan = FaultPlan(seed=0)
    router, _ = _chaotic_pair(plan, clock, degraded_reads=True)
    queue = WorkQueue(transport=router)
    # Park pending tickets on shard 1 only, then partition it.
    name = None
    for i in range(512):
        candidate = f"0000000001-t{i}"
        if router.shard_index(f"pending/{candidate}.json") == 1:
            name = candidate
            break
    router.put(f"pending/{name}.json", b'{"attempts": 0}')
    assert not queue.drained()               # honest while healthy too
    plan.error_rate(1.0)
    assert not queue.drained()               # degraded: cannot prove empty
    plan.error_rate(0.0)
    router.delete(f"pending/{name}.json")
    assert queue.drained()


def test_snapshot_campaign_reports_shards_under_breaker_degradation():
    spec = SweepSpec(name="chaos-snap", case="synthetic",
                     base={"rate": 140.0}, grid={"tasks": [5, 9, 17]})
    clock = _Clock()
    plan = FaultPlan(seed=0)
    router, _ = _chaotic_pair(plan, clock, breaker_failures=1,
                              degraded_reads=True)
    queue = WorkQueue(transport=router)
    queue.enqueue_grid(spec.expand())
    item = queue.claim("w0")
    queue.complete(item, execute_job(item.job))

    healthy = snapshot_campaign(spec, queue)
    assert healthy.shards_reporting == (2, 2)
    assert "shards reporting" not in healthy.summary()

    plan.error_rate(1.0)
    with pytest.raises(TransportError):      # trip shard 1's breaker
        router.put(_key_on(router, 1), b"{}")
    degraded = snapshot_campaign(spec, queue)
    assert degraded.shards_reporting == (1, 2)
    assert "[1 of 2 shards reporting]" in degraded.summary()
    assert degraded.result.meta["incremental"]["shards_reporting"] == [1, 2]


# -- degraded claims: the fleet keeps serving --------------------------------

def test_sharded_breaker_claims_skip_dead_shard_then_recover(tmp_path):
    """With one shard's circuit open, ``claim_first`` serves the healthy
    ring (longest-available-first); the dead shard's tickets stay safe on
    its store and flow again after the breaker's half-open probe."""
    spec = SweepSpec(name="chaos-claims", case="synthetic",
                     base={"rate": 140.0},
                     grid={"workers": [1, 2], "tasks": [5, 9, 17]})
    jobs = spec.expand()
    clock = _Clock()
    plan = FaultPlan(seed=0)
    brokers = [Broker().start(), Broker().start()]
    try:
        shard0 = HttpTransport(brokers[0].url, retries=1, retry_delay=0.05)
        shard1 = ChaosTransport(
            HttpTransport(brokers[1].url, retries=1, retry_delay=0.05),
            plan)
        router = ShardedTransport([shard0, shard1], breaker_failures=1,
                                  breaker_cooldown=5.0, breaker_clock=clock)
        queue = WorkQueue(transport=router, lease_seconds=30.0)
        queue.enqueue_grid(jobs)
        on_shard1 = {job.job_id for job in jobs
                     if router.shard_index(f"jobs/{job.job_id}.json") == 1}
        assert on_shard1 and len(on_shard1) < len(jobs)  # both shards loaded

        plan.error_rate(1.0)                 # partition shard 1
        claimed = []
        while True:
            item = queue.claim("w0")
            if item is None:
                break
            claimed.append(item.job.job_id)
            queue.complete(item, execute_job(item.job))
        # Every healthy-shard job was served; the dead shard's tickets
        # are still parked on its own store, not lost.
        assert set(claimed) == {job.job_id for job in jobs
                                if job.job_id not in on_shard1}
        assert router.breakers[1].state == OPEN
        assert len(shard1.inner.list("pending/")) == len(on_shard1)

        plan.error_rate(0.0)                 # heal, then pass the cooldown
        clock.advance(5.5)
        while True:
            item = queue.claim("w0")
            if item is None:
                break
            claimed.append(item.job.job_id)
            queue.complete(item, execute_job(item.job))
        assert set(claimed) == {job.job_id for job in jobs}
        assert queue.drained()
        assert router.breakers[1].state == CLOSED
        router.close()
    finally:
        for broker in brokers:
            broker.stop()


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
    """Regression (the pre-breaker behavior): a broker dropping requests
    mid-loop used to surface as exit code 3 on the first error.  With
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


# -- dist.stats on a degraded fleet ------------------------------------------

def _dead_url():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


def test_stats_cli_chaos_renders_down_shard_and_keeps_aggregating(capsys):
    from repro.campaign.dist.stats import main as stats_main

    broker = Broker().start()
    try:
        transport = HttpTransport(broker.url)
        WorkQueue(transport=transport).enqueue_grid(
            SweepSpec(name="chaos-stats", case="synthetic",
                      base={"rate": 140.0}, grid={"tasks": [5, 9, 17]}
                      ).expand())
        transport.close()
        fleet = f"{broker.url},{_dead_url()}"
        assert stats_main([fleet]) == 0      # a degraded fleet is not rc 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert "1/2 shards" in lines[0]
        assert "pending 3" in lines[0]       # the live shard still counted
        assert lines[1].strip().startswith(f"shard {broker.url}")
        assert "DOWN" in lines[2]
    finally:
        broker.stop()


def test_stats_cli_chaos_exits_3_only_when_no_shard_answers(capsys):
    from repro.campaign.dist.stats import main as stats_main

    assert stats_main([f"{_dead_url()},{_dead_url()}"]) == 3
    assert "no shard answered" in capsys.readouterr().err


# -- orchestrator riding out a window ----------------------------------------

def test_executor_chaos_drain_poll_rides_out_a_partition_window():
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

def test_chaos_partitioned_shard_fleet_completes_grid_exactly_once(
        monkeypatch):
    """The headline chaos acceptance: a 2-broker sharded fleet where one
    shard disappears behind a partition window mid-campaign *and* tears
    half its post-enqueue writes — settles, requeues, heartbeats
    (applied, then reported failed).  The fleet
    must still complete the full grid with exactly one execution per job
    key and a serial-identical aggregate, no job lost or dead-lettered —
    and the flapping shard's breaker must show the full trip ->
    half-open -> reclose lifecycle."""
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

    brokers = [Broker().start(), Broker().start()]
    chaos_registry = MetricsRegistry()
    try:
        start = time.monotonic()
        plan = FaultPlan(seed=17).fail_between(start + 0.3, start + 1.5)
        # Every write on shard 1 is a mutate_many, and neither the enqueue
        # nor the queue.json create ever tolerated a torn write: tearing
        # starts once enqueue_grid returns.  Settles, requeues and
        # heartbeats still tear.
        real_enqueue_grid = WorkQueue.enqueue_grid

        def enqueue_then_tear(queue, *args, **kwargs):
            names = real_enqueue_grid(queue, *args, **kwargs)
            plan.torn_writes(0.5, "mutate_many")
            return names

        monkeypatch.setattr(WorkQueue, "enqueue_grid", enqueue_then_tear)
        shard0 = HttpTransport(brokers[0].url, retries=2, retry_delay=0.05)
        shard1 = ChaosTransport(
            HttpTransport(brokers[1].url, retries=2, retry_delay=0.05),
            plan, registry=chaos_registry)
        router = ShardedTransport([shard0, shard1], breaker_failures=3,
                                  breaker_cooldown=0.3)
        # The chaos wrapper is address-less by design, so the executor
        # spawns a *thread* fleet sharing this very router (a spawned
        # process would be handed the inner URL and bypass the chaos).
        assert router.address is None
        cache = TransportResultCache(MemoryTransport())  # un-chaos'd dedup
        executor = DistributedExecutor(
            transport=router, workers=2, cache=cache,
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
        # Both shards carried real traffic.
        for broker in brokers:
            shard = HttpTransport(broker.url)
            assert shard.list("done/"), f"no settled work on {broker.url}"
            shard.close()
        # The window really injected faults through the wrapper.
        assert counter_total(chaos_registry.snapshot(),
                             "chaos_faults_total") > 0

        # Breaker lifecycle: the campaign tripped the flapping shard; if
        # it drained before the probe fired, drive recovery explicitly.
        probe_key = _key_on(router, 1)
        deadline = time.monotonic() + 10.0
        while (("shard-1", "half-open", "closed")
               not in list(router.breaker_events)):
            assert time.monotonic() < deadline, list(router.breaker_events)
            try:
                router.get(probe_key)
            except TransportError:
                pass
            time.sleep(0.05)
        events = [event for event in router.breaker_events
                  if event[0] == "shard-1"]
        assert ("shard-1", "closed", "open") in events       # trip
        assert ("shard-1", "open", "half-open") in events    # probe
        assert events.index(("shard-1", "closed", "open")) < events.index(
            ("shard-1", "half-open", "closed"))              # ... reclose
        router.close()
    finally:
        for broker in brokers:
            broker.stop()
