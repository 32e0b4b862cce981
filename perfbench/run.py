"""End-to-end benchmark: four paper workloads through the public entry points.

Run one workload from the repository root::

    python3 perfbench/run.py --workload imagenet-lustre --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload imagenet-lustre --seed 1 --seconds 20 --trace 1

``--trace 0`` repeats the workload for ``--seconds`` (at least twice) and
reports the end-to-end metrics as medians over the repetitions.  ``--trace
1`` runs it once untraced and once under ``cProfile`` with the outside
counters of ``probes.py`` installed, and reports the per-layer metrics.
Either way every repetition's simulated outputs are checked, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``README.md`` beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layerprof import LAYERS, OTHER, LayerProfile  # noqa: E402
from probes import Probes  # noqa: E402
from repro.campaign import DistributedExecutor, run_campaign  # noqa: E402
from repro.campaign.cache import open_cache  # noqa: E402
from repro.campaign.dist.server import Broker  # noqa: E402
from repro.campaign.dist.transport import HttpTransport  # noqa: E402
from repro.campaign.jobs import execute_job  # noqa: E402
from repro.campaign.spec import JobSpec  # noqa: E402
from repro.workloads import (  # noqa: E402
    build_imagenet_dataset,
    build_malware_dataset,
    greendog,
    kebnekaise,
    platform_grid_spec,
)

DEFAULT_SEED = 1
MIN_REPS = 2  # so that two repeats can be compared bit for bit
#: Set-up is sampled until both floors are met, so that even a
#: sub-millisecond set-up yields a steady median.
MIN_SETUPS = 7
SETUP_BUDGET_S = 0.3
EXPECTED_PATH = HERE / "expected.json"
#: Relative tolerance for the stored outputs, which keep 9 significant digits.
REL_TOL = 1e-8

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "job_p50_s": "s", "job_p90_s": "s"}

PER_LAYER = {f"{layer}.{kind}": unit for layer in LAYERS + (OTHER,)
             for kind, unit in (("self_s", "s"), ("self_share", "ratio"))}
PER_LAYER.update({
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.sim_s_per_wall_s": "s/s",
    "sim.bandwidth.transfers": "count",
    "sim.bandwidth.reallocs": "count",
    "sim.bandwidth.reallocs_per_transfer": "ratio",
    "storage.metrics.intervals": "count",
    "storage.metrics.timeline_s": "s",
    "storage.bytes_read": "B",
    "storage.bytes_written": "B",
    "storage.pagecache_hit_ratio": "ratio",
    "storage.staged_bytes": "B",
    "posix.calls": "count",
    "darshan.records": "count",
    "darshan.dxt_segments": "count",
    "core.snapshots": "count",
    "core.records_copied": "count",
    "core.records_changed": "count",
    "core.useful_diff_ratio": "ratio",
    "core.snapshot_s": "s",
    "tfmini.steps": "count",
    "tools.dstat_s": "s",
    "campaign.dist.claims": "count",
    "campaign.dist.http_requests": "count",
    "campaign.dist.requests_per_job": "ratio",
    "campaign.dist.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})


@dataclass
class Rep:
    """One repetition of a workload's timed section."""

    wall_s: float
    job_s: List[float]
    attempted: int
    errors: int
    #: Every simulated output, compared bit for bit between repetitions.
    outputs: Dict[str, Any]
    #: Broker ``GET /stats`` snapshot, for the distributed workload.
    broker_stats: Optional[dict] = None
    failed: int = 0


@dataclass
class SingleJob:
    """One case of the registry run through ``execute_job``."""

    case: str
    params: Dict[str, Any]
    #: The outputs compared with ``expected.json`` for the default seed.
    checked: Tuple[str, ...]
    #: Platform build and dataset layout: the job's own set-up, timed apart.
    layout: Callable[[int], Any]
    #: A small run of the same case, so lazy imports happen before timing.
    warmup_params: Dict[str, Any] = field(default_factory=dict)

    def warm(self) -> None:
        self.run(None, DEFAULT_SEED, self.warmup_params)

    def setup(self, seed: int) -> None:
        self.layout(seed)

    def run(self, _state: None, seed: int,
            params: Optional[Dict[str, Any]] = None) -> Rep:
        job = JobSpec(campaign="perfbench", case=self.case, index=0,
                      params=dict(self.params if params is None else params),
                      seed=seed)
        start = time.perf_counter()
        result = execute_job(job)
        wall = time.perf_counter() - start
        return Rep(wall_s=wall, job_s=[result.wall_time], attempted=1,
                   errors=0 if result.ok else 1,
                   outputs=dict(result.metrics, error=result.error))

    def teardown(self, _state: None) -> None:
        pass


GRID_AXES = {"osts": (1, 2, 4, 8, 16),
             "page_cache_gib": (0.03125, 0.25, 8.0),
             "bandwidth_scales": (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)}


class PlatformGrid:
    """The 105-job platform grid, cold, drained by ``DistributedExecutor(
    workers=0)`` on the main thread against one in-process broker that
    hosts both the queue and the result cache."""

    checked = ("aggregate_fingerprint",)

    def warm(self) -> None:
        state = self.setup(DEFAULT_SEED)
        try:
            self.run(state, DEFAULT_SEED, axes={"osts": (1,),
                                                "page_cache_gib": (0.25,),
                                                "bandwidth_scales": (1.0,)})
        finally:
            self.teardown(state)

    def setup(self, seed: int):
        broker = Broker().start()
        cache = open_cache(broker.url)
        executor = DistributedExecutor(transport=broker.url, workers=0,
                                       cache=cache, timeout=120.0)
        return broker, cache, executor

    def run(self, state, seed: int,
            axes: Optional[Dict[str, Sequence]] = None) -> Rep:
        broker, cache, executor = state
        # Derived seeds give each grid point its own 12-file corpus.  With
        # the spec's shared seed one corpus sets the cost of all 105 jobs,
        # and its size, which the grid's cost follows, varies by up to
        # 1.5x from seed to seed.
        spec = dataclasses.replace(
            platform_grid_spec(**(axes or GRID_AXES), seed=seed),
            seed_mode="derived")
        start = time.perf_counter()
        result = run_campaign(spec, executor=executor, cache=cache)
        wall = time.perf_counter() - start
        timings = [record["timing"] for record
                   in executor.last_queue.result_records().values()]
        client = HttpTransport(broker.url)
        try:
            stats = client.stats()
        finally:
            client.close()
        return Rep(wall_s=wall,
                   job_s=[t["finished_at"] - t["started_at"] for t in timings],
                   attempted=len(result), errors=len(result.failures),
                   outputs={"aggregate_fingerprint":
                            result.aggregate_fingerprint()},
                   broker_stats=stats)

    def teardown(self, state) -> None:
        broker, cache, executor = state
        if executor.last_queue is not None:
            executor.last_queue.transport.close()
        cache.transport.close()
        broker.stop()


def _imagenet_layout(seed: int) -> None:
    platform = kebnekaise()
    build_imagenet_dataset(platform.os.vfs,
                           root=f"{platform.data_root}/imagenet",
                           scale=0.05, seed=seed)


def _malware_layout(seed: int) -> None:
    platform = greendog()
    build_malware_dataset(platform.os.vfs,
                          root=f"{platform.data_root}/malware",
                          scale=0.2, seed=seed)


def _stream_layout(seed: int) -> None:
    platform = greendog()
    build_imagenet_dataset(platform.os.vfs, root="/data/imagenet",
                           scale=0.1, seed=seed)


TRAINING_CHECKED = ("steps", "fit_time", "posix_bandwidth", "posix_reads")

WORKLOADS = {
    "imagenet-lustre": SingleJob(
        case="imagenet",
        params={"scale": 0.05, "batch_size": 256, "threads": 28,
                "profile": "epoch"},
        checked=TRAINING_CHECKED, layout=_imagenet_layout,
        warmup_params={"scale": 0.002, "batch_size": 16, "threads": 4}),
    "malware-staging": SingleJob(
        case="malware", params={"staging_threshold": 2 << 20},
        checked=TRAINING_CHECKED, layout=_malware_layout,
        warmup_params={"scale": 0.01, "staging_threshold": 2 << 20}),
    "stream-tfdarshan": SingleJob(
        case="stream", params={},
        checked=("elapsed", "windows", "tfdarshan_bandwidth"),
        layout=_stream_layout,
        warmup_params={"steps": 4, "batch_size": 16, "threads": 4}),
    "platform-grid": PlatformGrid(),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def matches(outputs: Dict[str, Any], expected: Dict[str, Any],
            keys: Sequence[str]) -> bool:
    """Whether ``outputs`` agree with stored values on every checked key:
    integers and strings exactly, floats to ~9 significant digits."""
    for key in keys:
        got, want = outputs.get(key), expected.get(key)
        if isinstance(want, float):
            if not (isinstance(got, (int, float))
                    and math.isclose(got, want, rel_tol=REL_TOL)):
                return False
        elif want is None or got != want:
            return False
    return True


def check_reps(name: str, seed: int, reps: List[Rep],
               expected: Dict[str, Dict[str, Any]]) -> None:
    """Set ``rep.failed``: jobs that raised, or every job of a repetition
    whose outputs miss the stored values (default seed) or differ in any
    bit from the first repetition's."""
    workload = WORKLOADS[name]
    first = json.dumps(reps[0].outputs, sort_keys=True)
    for rep in reps:
        ok = json.dumps(rep.outputs, sort_keys=True) == first
        if seed == DEFAULT_SEED:
            ok = ok and matches(rep.outputs, expected.get(name, {}),
                                workload.checked)
        rep.failed = rep.errors if ok else rep.attempted


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _timed_setup(workload, seed: int, setups: List[float]):
    start = time.perf_counter()
    state = workload.setup(seed)
    setups.append(time.perf_counter() - start)
    return state


def _rep(workload, state, seed: int) -> Rep:
    try:
        return workload.run(state, seed)
    finally:
        workload.teardown(state)


def measure(name: str, seed: int, seconds: float
            ) -> Tuple[List[Rep], Dict[str, float]]:
    """Untraced: repeat the timed section for ``seconds`` (at least
    :data:`MIN_REPS` times) and report end-to-end medians."""
    workload = WORKLOADS[name]
    workload.warm()
    setups: List[float] = []
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        gc.collect()
        state = _timed_setup(workload, seed, setups)
        reps.append(_rep(workload, state, seed))
    while len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S:
        workload.teardown(_timed_setup(workload, seed, setups))
    job_s = [t for rep in reps for t in rep.job_s]
    metrics = {
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "job_p50_s": statistics.median(job_s),
        "job_p90_s": statistics.quantiles(job_s, n=10,
                                          method="inclusive")[8],
    }
    return reps, metrics


def _broker_counter(stats: Optional[dict], family: str,
                    **labels: str) -> int:
    """Sum of a broker counter family over matching labels, leaving out
    the ``GET /stats`` request that fetched it."""
    if not stats:
        return 0
    series = stats["metrics"]["counters"].get(family, [])
    return int(sum(point["value"] for point in series
                   if all(point["labels"].get(k) == v
                          for k, v in labels.items())
                   and point["labels"].get("route") != "/stats"))


def trace(name: str, seed: int) -> Tuple[List[Rep], Dict[str, float]]:
    """Traced: one untraced repetition for the baseline, then one under
    ``cProfile`` with the outside counters installed."""
    workload = WORKLOADS[name]
    workload.warm()
    gc.collect()
    untraced = _rep(workload, workload.setup(seed), seed)
    gc.collect()
    state = workload.setup(seed)
    profiler = cProfile.Profile()
    try:
        with Probes() as probes:
            profiler.enable()
            try:
                traced = workload.run(state, seed)
            finally:
                profiler.disable()
    finally:
        workload.teardown(state)

    layers = LayerProfile(profiler, bench_dirs=[HERE])
    counters = probes.counters()
    base_wall = untraced.wall_s
    transfers = layers.calls("sim/bandwidth.py", "transfer")
    reallocs = layers.calls("sim/bandwidth.py", "_reschedule")
    requests = _broker_counter(traced.broker_stats, "broker_requests_total")
    metrics = layers.metrics()
    metrics.update({
        "sim.events": counters["sim.events"],
        "sim.events_per_s": counters["sim.events"] / base_wall,
        "sim.sim_s_per_wall_s": counters["sim_seconds"] / base_wall,
        "sim.bandwidth.transfers": transfers,
        "sim.bandwidth.reallocs": reallocs,
        "sim.bandwidth.reallocs_per_transfer":
            reallocs / transfers if transfers else 0.0,
        "storage.metrics.timeline_s":
            layers.cumulative_s("storage/metrics.py", "throughput_timeline"),
        "storage.staged_bytes": traced.outputs.get("staged_bytes", 0),
        "core.snapshot_s":
            layers.cumulative_s("core/wrapper.py", "take_snapshot")
            + layers.cumulative_s("core/wrapper.py", "diff"),
        "tfmini.steps": traced.outputs.get("steps", 0),
        "tools.dstat_s": layers.cumulative_s("tools/dstat.py", "series"),
        "campaign.dist.claims": _broker_counter(
            traced.broker_stats, "broker_claims_total", outcome="claimed"),
        "campaign.dist.http_requests": requests,
        "campaign.dist.requests_per_job": requests / traced.attempted,
        "campaign.dist.overhead_s": (base_wall - sum(untraced.job_s)
                                     if untraced.broker_stats else 0.0),
        "trace.untraced_wall_s": base_wall,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - base_wall,
    })
    metrics.update({key: value for key, value in counters.items()
                    if key in PER_LAYER})
    return [untraced, traced], metrics


def result_line(reps: List[Rep], metrics: Dict[str, float],
                units: Dict[str, str]) -> Dict[str, Any]:
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = load_expected()
    if args.trace:
        reps, metrics = trace(args.workload, args.seed)
        units = PER_LAYER
    else:
        reps, metrics = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END
    check_reps(args.workload, args.seed, reps, expected)
    line = result_line(reps, metrics, units)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions, failed_frac "
          f"{line['failed'] / line['attempted']:.4f} "
          f"({line['failed']}/{line['attempted']} jobs)")
    shown = {key: reps[0].outputs.get(key)
             for key in WORKLOADS[args.workload].checked}
    print(f"  outputs {json.dumps(shown, sort_keys=True)}")
    for key, unit in units.items():
        print(f"  {key:40s} {metrics[key]:.6g} {unit}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
