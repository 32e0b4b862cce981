"""Thread-safe labelled metrics with JSON snapshotting.

The fleet-observability substrate (``repro.campaign.obs``) applies the
source paper's profiler-first methodology to our own runtime: the broker,
transports, queue, cache and workers all record what they do into a
:class:`MetricsRegistry`, and the registry's :meth:`~MetricsRegistry.
snapshot` is the wire format everything downstream reads — the broker's
``GET /stats`` endpoint, worker heartbeat documents, and the live
``python -m repro.campaign.dist.stats`` dashboard.

Design constraints, in order:

* **Dependency-free.**  Pure stdlib, like the rest of the campaign layer.
* **Cheap when hot.**  An increment is one lock acquisition and one dict
  update; instrumenting the broker's per-request path must not move the
  throughput floors in ``BENCH_transport.json`` (the ``BENCH_obs.json``
  benchmark pins the overhead down).
* **Label-aware.**  Every metric is a *family* of series keyed by label
  values (``requests.inc(route="/batch", status=200)``), mirroring the
  Prometheus data model so the snapshot shape stays future-proof.

Three metric kinds:

``Counter``
    Monotonically increasing totals (requests served, bytes moved,
    claim conflicts).  ``inc()`` only; never decremented.
``Gauge``
    Point-in-time levels (in-flight requests, live workers).  ``set``/
    ``inc``/``dec``.
``Histogram``
    Distributions (request latency).  Observations land in fixed
    exponential buckets plus running count/sum/min/max, so a snapshot
    supports both rate math and tail-latency estimates without keeping
    raw samples.

A process-wide default registry (:func:`get_registry`) collects
client-side metrics (transport, queue, cache, worker) so one snapshot
describes a whole worker process; servers that want isolation (each
broker's dialect) construct their own private registry.

>>> registry = MetricsRegistry()
>>> requests = registry.counter("requests_total")
>>> requests.inc(route="/batch")
>>> requests.inc(2, route="/list")
>>> requests.value(route="/list")
2.0
>>> snap = registry.snapshot()
>>> [s["value"] for s in snap["counters"]["requests_total"]]
[1.0, 2.0]
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds): exponential coverage
#: from 100µs (an in-memory broker op) to 10s (a retried WAN exchange).
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared family plumbing: one lock, one series dict per label set."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[_LabelKey, Any] = {}

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    @staticmethod
    def _labels_dict(key: _LabelKey) -> Dict[str, str]:
        return dict(key)


class Counter(_Metric):
    """Monotonically increasing total, per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set (the family-level rate source)."""
        with self._lock:
            return float(sum(self._series.values()))

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [{"labels": self._labels_dict(key), "value": float(value)}
                for key, value in items]


class Gauge(_Metric):
    """Point-in-time level, per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [{"labels": self._labels_dict(key), "value": float(value)}
                for key, value in items]


class _HistogramSeries:
    """One label set's distribution state."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, buckets: int):
        self.counts = [0] * (buckets + 1)  # +1: the +inf overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Metric):
    """Bucketed distribution with running count/sum/min/max, per label set."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets))
            series.counts[bisect_left(self.buckets, value)] += 1
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    def time(self, **labels: Any) -> "_Timer":
        """Context manager observing the block's wall time in seconds."""
        return _Timer(self, labels)

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = [(key, series.counts[:], series.count, series.sum,
                      series.min, series.max)
                     for key, series in sorted(self._series.items())]
        out = []
        for key, counts, count, total, low, high in items:
            out.append({
                "labels": self._labels_dict(key),
                "count": count,
                "sum": total,
                "min": low if count else None,
                "max": high if count else None,
                # Non-cumulative per-bucket counts keyed by upper bound;
                # "+inf" is the overflow bucket.
                "buckets": dict(zip([repr(b) for b in self.buckets]
                                    + ["+inf"], counts)),
            })
        return out


class _Timer:
    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Dict[str, Any]):
        self._histogram = histogram
        self._labels = labels

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start,
                                **self._labels)


class MetricsRegistry:
    """A named collection of metric families with one JSON snapshot.

    ``counter``/``gauge``/``histogram`` are get-or-create: every caller
    asking for the same name shares the family (asking with a different
    kind raises — one name, one meaning).  The snapshot is plain JSON
    data, shaped for the ``GET /stats`` wire format::

        {"counters":   {name: [{"labels": {...}, "value": n}, ...]},
         "gauges":     {name: [...same...]},
         "histograms": {name: [{"labels": {...}, "count": n, "sum": s,
                                "min": m, "max": M,
                                "buckets": {"0.001": 3, ..., "+inf": 0}}]},
         "created_at": <unix seconds>}
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self.created_at = time.time()

    def _get_or_create(self, cls, name: str, help: str,
                       **kwargs: Any) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-safe view of every family (see the class docstring)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, Any] = {"counters": {}, "gauges": {},
                               "histograms": {},
                               "created_at": self.created_at}
        kinds = {"counter": "counters", "gauge": "gauges",
                 "histogram": "histograms"}
        for metric in metrics:
            out[kinds[metric.kind]][metric.name] = metric._snapshot_series()
        return out

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry(families={len(self._metrics)})"


#: The process-wide default registry: client-side instrumentation
#: (transport, queue, cache, worker) records here unless handed a
#: private registry, so one snapshot describes a whole worker process.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT


def counter_total(snapshot: Dict[str, Any], name: str) -> float:
    """Sum of one counter family's series in a :meth:`~MetricsRegistry.
    snapshot` (0.0 when the family has never been touched) — the helper
    the ``dist.stats`` dashboard builds its rate math on."""
    series = (snapshot.get("counters") or {}).get(name) or []
    return float(sum(entry.get("value", 0.0) for entry in series))


def series_value(snapshot: Dict[str, Any], kind: str, name: str,
                 /, **labels: Any) -> Optional[float]:
    """One series' value in a snapshot, or ``None`` when absent.

    ``kind`` is ``"counters"`` or ``"gauges"``; labels must match the
    series' label set exactly.  The leading parameters are positional-only
    so that ``kind``/``name``/``snapshot`` stay usable as *label* names
    (the chaos fault counter labels its series by fault ``kind``).
    """
    wanted = {str(k): str(v) for k, v in labels.items()}
    for entry in (snapshot.get(kind) or {}).get(name) or []:
        if entry.get("labels", {}) == wanted:
            return float(entry.get("value", 0.0))
    return None
