"""Micro-benchmark: the observability layer's own overhead.

The metrics registry sits on every hot path of the dist stack — each
broker request, transport op, claim and cache probe pays one or two
counter increments and a histogram observation — so its cost budget is
part of the transport throughput story.  This harness measures raw
registry ops/s (counter increments with labels, histogram observations,
timer context managers, snapshotting a populated registry) and span
recording, persists the numbers as ``BENCH_obs.json``, and asserts
floors loose enough for noisy CI hosts but tight enough that an
accidental O(n) label scan or per-op allocation storm fails the
perf-smoke leg.  The end-to-end guarantee — the *instrumented* HTTP
transport still clears the 250 cycles/s floor — lives in
``test_transport_throughput.py``, which runs in the same CI leg.
Opt-in via ``pytest -m bench``.
"""

import time

import pytest

from repro.campaign.obs import MetricsRegistry, SpanRecorder

pytestmark = pytest.mark.bench

#: Operations per timed round.
N_OPS = 50_000

#: Timed rounds; the best round is reported (standard minimum-time
#: estimate under host noise).
ROUNDS = 3


def _best_rate(fn, n=N_OPS):
    """Best ops/s for ``fn(n)`` over :data:`ROUNDS` rounds (one warmup)."""
    fn(n)  # warmup: interpreter-cold paths, series creation
    best = 0.0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn(n)
        best = max(best, n / (time.perf_counter() - start))
    return best


@pytest.fixture(scope="module")
def rates():
    registry = MetricsRegistry()
    counter = registry.counter("bench_total")
    histogram = registry.histogram("bench_seconds")

    def inc_labelled(n):
        for i in range(n):
            counter.inc(route="/batch", method="POST")

    def observe(n):
        for i in range(n):
            histogram.observe(0.0015, op="get")

    def timer(n):
        for i in range(n):
            with histogram.time(op="timed"):
                pass

    def record_spans(n):
        recorder = SpanRecorder()
        for i in range(n):
            recorder.record("run", start=float(i), end=float(i) + 0.5,
                            thread="w0")

    # Snapshot cost over a realistically-populated registry (a few
    # dozen series, like a busy broker) — per snapshot, not per op.
    wide = MetricsRegistry()
    for route in ("/healthz", "/list", "/batch", "/claim", "/stats",
                  "other"):
        for method in ("GET", "PUT", "POST", "DELETE"):
            wide.counter("requests_total").inc(route=route, method=method)
            wide.histogram("seconds").observe(0.001, route=route)

    def snapshot(n):
        for i in range(n):
            wide.snapshot()

    return {
        "counter_inc_per_s": _best_rate(inc_labelled),
        "histogram_observe_per_s": _best_rate(observe),
        "timer_ctx_per_s": _best_rate(timer),
        "span_record_per_s": _best_rate(record_spans),
        "snapshot_per_s": _best_rate(snapshot, n=2_000),
    }


def test_report_and_floor_obs_rates(rates, bench_artifact):
    for name, rate in sorted(rates.items(), key=lambda kv: -kv[1]):
        print(f"\n{name:>24}: {rate:12,.0f} ops/s")
    bench_artifact("obs", rates)
    # A queue cycle at the 250 cycles/s floor has a ~4ms budget and pays
    # on the order of ten registry ops; at >=100k ops/s each op costs
    # <=10µs, keeping instrumentation under ~0.25% of a cycle.
    assert rates["counter_inc_per_s"] > 100_000.0
    assert rates["histogram_observe_per_s"] > 100_000.0
    assert rates["timer_ctx_per_s"] > 50_000.0
    assert rates["span_record_per_s"] > 50_000.0
    assert rates["snapshot_per_s"] > 200.0
