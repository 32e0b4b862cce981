"""Observability-layer tests: metrics registry, spans, ``GET /stats``.

Covers the :mod:`repro.campaign.obs` contracts (labelled counters and
histograms, thread-safety under concurrent increments, Chrome-trace span
shape), the broker's ``GET /stats`` endpoint (shape, monotonic
counters, 200 on a fresh broker), the heartbeat
transport-error tolerance, the per-job span pipeline through result
records into ``trace.json``, and the ``dist.stats`` CLI.
"""

import json
import threading
import time
import types
import urllib.request

import pytest

from repro.campaign import SweepSpec
from repro.campaign.dist import HttpTransport, MemoryTransport, WorkQueue
from repro.campaign.dist.executor import DistributedExecutor
from repro.campaign.dist.server import Broker
from repro.campaign.dist.stats import main as stats_main
from repro.campaign.dist.stats import worker_reports
from repro.campaign.dist.transport import TransportError
from repro.campaign.dist.worker import _LeaseHeartbeat
from repro.campaign.jobs import execute_job
from repro.campaign.obs import (
    MetricsRegistry,
    SpanRecorder,
    StructLogger,
    counter_total,
    series_value,
    spans_from_result_records,
)

@pytest.fixture
def broker():
    b = Broker().start()
    try:
        yield b
    finally:
        b.stop()


def _spec(**overrides):
    kwargs = dict(name="obs-spec", case="synthetic",
                  base={"rate": 150.0},
                  grid={"workers": [1, 2], "tasks": [4, 8]})
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# -- metrics registry --------------------------------------------------------

def test_counter_labels_and_helpers():
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "requests by route")
    requests.inc(route="/batch", method="POST")
    requests.inc(2.0, route="/batch", method="POST")
    requests.inc(route="/list", method="GET")
    assert requests.value(route="/batch", method="POST") == 3.0
    assert requests.total() == 4.0
    snapshot = registry.snapshot()
    assert counter_total(snapshot, "requests_total") == 4.0
    assert series_value(snapshot, "counters", "requests_total",
                        route="/list", method="GET") == 1.0
    # label order must not matter: same series either way round
    assert series_value(snapshot, "counters", "requests_total",
                        method="POST", route="/batch") == 3.0
    assert series_value(snapshot, "counters", "requests_total",
                        route="/nope") is None


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    assert registry.counter("x_total") is registry.counter("x_total")
    with pytest.raises(ValueError, match="x_total"):
        registry.gauge("x_total")
    with pytest.raises(ValueError):
        registry.counter("x_total").inc(-1.0)


def test_gauge_and_histogram_snapshot_shape():
    registry = MetricsRegistry()
    inflight = registry.gauge("inflight")
    inflight.inc()
    inflight.inc()
    inflight.dec()
    latency = registry.histogram("op_seconds")
    for value in (0.0002, 0.002, 0.02, 5.0, 100.0):
        latency.observe(value, op="get")
    snapshot = registry.snapshot()
    assert set(snapshot) == {"counters", "gauges", "histograms",
                             "created_at"}
    assert series_value(snapshot, "gauges", "inflight") == 1.0
    [series] = snapshot["histograms"]["op_seconds"]
    assert series["labels"] == {"op": "get"}
    assert series["count"] == 5
    assert series["min"] == pytest.approx(0.0002)
    assert series["max"] == pytest.approx(100.0)
    assert series["sum"] == pytest.approx(105.0222)
    buckets = series["buckets"]
    assert "+inf" in buckets
    assert buckets["+inf"] == 1        # only 100.0 overflows the top bound
    assert sum(buckets.values()) == 5  # per-bucket counts partition count
    # JSON-serializable end to end (the /stats wire requirement)
    json.loads(json.dumps(snapshot))


def test_registry_thread_safety_under_concurrent_increments():
    registry = MetricsRegistry()
    counter = registry.counter("hits_total")
    histogram = registry.histogram("seconds")
    threads, per_thread = 8, 2500

    def hammer(index):
        for _ in range(per_thread):
            counter.inc(worker=str(index % 2))
            histogram.observe(0.001)

    pool = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    snapshot = registry.snapshot()
    assert counter_total(snapshot, "hits_total") == threads * per_thread
    [series] = snapshot["histograms"]["seconds"]
    assert series["count"] == threads * per_thread


# -- spans -------------------------------------------------------------------

def test_span_jsonl_is_valid_chrome_events(tmp_path):
    recorder = SpanRecorder(process="test-fleet")
    recorder.record("run", start=10.0, end=10.5, thread="w0",
                    metadata={"job": "abc"})
    recorder.record("queue-wait", start=9.0, end=10.0, thread="w0")
    recorder.record("run", start=10.0, end=10.2, thread="w1")
    path = tmp_path / "spans.jsonl"
    assert recorder.write_jsonl(path) == 3
    lines = path.read_text().strip().splitlines()
    events = [json.loads(line) for line in lines]
    # golden shape: every line is a complete Chrome trace event
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], int)
        assert isinstance(event["dur"], int)
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["name"] in ("run", "queue-wait")
    # start-ordered, microsecond units, stable lane per thread
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    assert events[0]["ts"] == 9_000_000 and events[0]["dur"] == 1_000_000
    assert len({e["tid"] for e in events}) == 2  # two worker lanes


def test_chrome_trace_file_has_metadata_events(tmp_path):
    recorder = SpanRecorder(process="campaign")
    with recorder.span("store", thread="w0") as meta:
        meta["key"] = "k1"
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(path)
    trace = json.loads(path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    phases = [e["ph"] for e in trace["traceEvents"]]
    assert "M" in phases and "X" in phases  # names + the span itself
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert {"process_name", "thread_name"} <= names


def test_spans_from_result_records_phases_and_gaps():
    records = {
        "good": {"worker": "w0", "attempts": 1, "cached": False,
                 "timing": {"enqueued_at": 100.0, "claimed_at": 101.0,
                            "started_at": 101.1, "finished_at": 102.0,
                            "stored_at": 102.2}},
        # no claim stamp: queue-wait is unknowable, run/store still emitted
        "partial": {"worker": "w1",
                    "timing": {"started_at": 50.0, "finished_at": 51.0,
                               "stored_at": 51.5}},
        "no-timing": {"worker": "w2"},
        # inverted clock (NTP step): the bogus phase is dropped
        "inverted": {"worker": "w3",
                     "timing": {"started_at": 60.0, "finished_at": 59.0}},
    }
    spans = spans_from_result_records(records)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["queue-wait"]) == 1
    assert len(by_name["run"]) == 2
    assert len(by_name["store"]) == 2
    good_run = [s for s in by_name["run"] if s.metadata["job"] == "good"][0]
    assert good_run.thread == "w0"
    assert good_run.duration == pytest.approx(0.9)


# -- structured logs ---------------------------------------------------------

def test_structlogger_renders_greppable_lines():
    import io

    stream = io.StringIO()
    log = StructLogger("broker", stream=stream)
    log.event("request", method="GET", ms=1.23456, ok=True,
              target="/list?prefix=a b")
    log.event("shutdown")
    disabled = StructLogger("quiet", stream=stream, enabled=False)
    disabled.event("never")
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("[broker] request ")
    assert "method=GET" in lines[0]
    assert "ms=1.235" in lines[0]          # floats compact, not 17 digits
    assert "ok=true" in lines[0]
    assert "target='/list?prefix=a b'" in lines[0]   # spaces get quoted
    assert lines[1] == "[broker] shutdown"
    assert len(lines) == 2                 # disabled logger wrote nothing


# -- heartbeat tolerance (satellite: worker survives transient errors) -------

def test_heartbeat_tolerates_transient_transport_errors():
    beats = {"count": 0}

    def flaky_heartbeat(item, metrics=None):
        beats["count"] += 1
        if beats["count"] == 1:
            raise TransportError("broker hiccup", address="http://x")
        return True

    queue = types.SimpleNamespace(lease_seconds=0.2,
                                  heartbeat=flaky_heartbeat)
    item = types.SimpleNamespace(key="job-1")
    import io

    stream = io.StringIO()
    hb = _LeaseHeartbeat(queue, item,
                         metrics=lambda: {"at": time.time()},
                         log=StructLogger("worker", stream=stream))
    hb.start()
    deadline = time.time() + 5.0
    while beats["count"] < 3 and time.time() < deadline:
        time.sleep(0.01)
    hb.stop()
    hb.join(timeout=5.0)
    assert beats["count"] >= 3     # kept beating after the error
    assert hb.errors == 1
    assert "heartbeat-error" in stream.getvalue()
    assert "TransportError" in stream.getvalue()


def test_worker_metrics_travel_through_heartbeats():
    queue = WorkQueue(transport=MemoryTransport(), lease_seconds=30.0)
    queue.enqueue(_spec().expand()[0])
    item = queue.claim(worker="w0")
    assert item is not None
    assert item.enqueued_at is not None  # stamped into the jobs/ record
    assert item.claimed_at is not None   # stamped by the lease document
    # The initial claim carries no metrics.
    assert worker_reports(queue.transport) == {}
    queue.heartbeat(item, metrics={"at": 1.0, "jobs_per_second": 2.5})
    queue.heartbeat(item, metrics={"at": 2.0, "jobs_per_second": 3.5})
    fleet = worker_reports(queue.transport)
    assert set(fleet) == {"w0"}
    assert fleet["w0"]["jobs_per_second"] == 3.5  # freshest snapshot wins


# -- GET /stats ---------------------------------------------------------------

def test_stats_endpoint_fresh_broker_shape(broker):
    # a fresh broker must serve /stats immediately: 200, never 404
    with urllib.request.urlopen(f"{broker.url}/stats", timeout=10) as resp:
        assert resp.status == 200
        payload = json.loads(resp.read())
    server = payload["server"]
    assert server["store"] == "MemoryTransport"
    assert server["uptime_seconds"] >= 0.0
    metrics = payload["metrics"]
    assert set(metrics) >= {"counters", "gauges", "histograms"}
    # the /stats request itself is metered: it is in flight right now
    assert series_value(metrics, "gauges", "broker_inflight_requests") == 1.0


def test_stats_counters_monotonic_and_labelled(broker):
    transport = HttpTransport(broker.url)
    try:
        transport.put("k/a.json", b"{}")
        transport.get("k/a.json")
        transport.get("k/missing.json")
        transport.list("k/")
        first = transport.stats()["metrics"]
        transport.get("k/a.json")
        second = transport.stats()["metrics"]
    finally:
        transport.close()
    # point ops are one-op batches: one route label however many keys,
    # and a miss is a per-op 404 inside a 200 batch reply
    batches = series_value(first, "counters", "broker_requests_total",
                           route="/batch", method="POST", status="200")
    assert batches == 3.0
    listings = series_value(first, "counters", "broker_requests_total",
                            route="/list", method="GET", status="200")
    assert listings == 1.0
    assert (counter_total(second, "broker_requests_total")
            > counter_total(first, "broker_requests_total"))
    assert counter_total(second, "broker_bytes_in_total") >= 2.0
    assert counter_total(second, "broker_bytes_out_total") >= 2.0
    # request latency histogram grew alongside
    series = second["histograms"]["broker_request_seconds"]
    assert sum(entry["count"] for entry in series) >= 6


def test_stats_counts_claim_outcomes(broker):
    transport = HttpTransport(broker.url)
    try:
        queue = WorkQueue(transport=transport, lease_seconds=30.0)
        assert queue.claim(worker="w0") is None  # drained queue
        job = _spec().expand()[0]
        queue.enqueue(job)
        assert queue.claim(worker="w0") is not None
        snapshot = transport.stats()["metrics"]
    finally:
        transport.close()
    assert series_value(snapshot, "counters", "broker_claims_total",
                        outcome="empty") >= 1.0
    assert series_value(snapshot, "counters", "broker_claims_total",
                        outcome="claimed") == 1.0


# -- client-side instrumentation ---------------------------------------------

def test_transport_meters_ops_into_private_registry(broker):
    registry = MetricsRegistry()
    transport = HttpTransport(broker.url, registry=registry)
    try:
        transport.put("k/a.json", b"{}")
        transport.get("k/a.json")
        transport.get("k/a.json")
    finally:
        transport.close()
    snapshot = registry.snapshot()
    assert series_value(snapshot, "counters", "transport_ops_total",
                        op="batch") == 3.0
    # keep-alive: first op opens the pooled connection, the rest reuse it
    assert series_value(snapshot, "counters", "transport_connections_total",
                        event="opened") == 1.0
    assert series_value(snapshot, "counters", "transport_connections_total",
                        event="reused") == 2.0
    series = snapshot["histograms"]["transport_op_seconds"]
    assert sum(entry["count"] for entry in series) == 3


# -- executor trace + stats CLI ----------------------------------------------

def test_executor_writes_perfetto_loadable_trace(tmp_path):
    trace_path = tmp_path / "trace.json"
    executor = DistributedExecutor(transport=MemoryTransport(), workers=0,
                                   trace_path=trace_path)
    jobs = _spec().expand()
    results = executor.map(execute_job, jobs)
    assert len(results) == len(jobs)
    trace = json.loads(trace_path.read_text())
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} >= {"run", "store"}
    jobs_traced = {e["args"]["job"] for e in complete if "job" in e["args"]}
    assert len(jobs_traced) == len(jobs)  # every job left spans
    for event in complete:
        assert event["dur"] >= 0


def test_stats_cli_one_shot_and_watch(broker, capsys):
    transport = HttpTransport(broker.url)
    try:
        queue = WorkQueue(transport=transport, lease_seconds=30.0)
        queue.enqueue(_spec().expand()[0])
    finally:
        transport.close()
    assert stats_main([broker.url]) == 0
    line = capsys.readouterr().out.strip()
    assert "pending 1" in line
    assert "req/s" in line and "in" in line and "out" in line
    assert stats_main([broker.url, "--watch", "--interval", "0.05",
                       "--ticks", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_stats_cli_exit_codes(capsys):
    assert stats_main(["not-a-url"]) == 2
    # A URL that does not parse is a bad command line too, not a
    # traceback: a non-numeric port, or a comma-separated broker list.
    for bad in ("http://127.0.0.1:notaport", "http://b1:8123,http://b2:8123"):
        capsys.readouterr()
        assert stats_main([bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad broker URL") and err.count("\n") == 1
    broker = Broker().start()
    url = broker.url
    broker.stop()
    assert stats_main([url]) == 3
