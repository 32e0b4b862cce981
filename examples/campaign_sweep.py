#!/usr/bin/env python
"""Tour of the experiment-campaign layer, from one process to a worker fleet.

Part 1 expands a two-axis sweep (input-pipeline threads × dataset scale) of
the ImageNet case study into jobs, runs them in parallel across worker
processes with content-hash caching, and prints the table- and
figure-shaped aggregates the benchmark harnesses consume.

Part 2 farms a *platform-parameter* grid — OST counts × page-cache sizes ×
device bandwidths — out to a fleet of distributed worker processes through
the durable work queue (`repro.campaign.dist`): workers claim jobs in
grid order, deduplicate against the shared cache, and the aggregate is
bit-identical to a serial run.  Pass ``--full`` to widen the grid to 105 jobs (the ROADMAP's
"100+-job grids are cheap to express" demonstration), ``--workers N`` to
size the fleet.

Run with:  python examples/campaign_sweep.py [--full] [--workers N]
Run it twice: the second invocation is served entirely from the cache
(``$REPRO_CAMPAIGN_CACHE``, or ``~/.cache/repro-campaigns``).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.campaign import (
    DistributedExecutor,
    MultiprocessingExecutor,
    ResultCache,
    SweepSpec,
    run_campaign,
)
from repro.tools import format_table, mbps
from repro.workloads import platform_grid_spec


def imagenet_sweep(cache: ResultCache) -> None:
    spec = SweepSpec(
        name="imagenet-threads-x-scale",
        case="imagenet",
        base={"batch_size": 128, "profile": "epoch"},
        grid={
            "threads": [1, 4, 28],
            "scale": [0.01, 0.02],
        },
        seed=1,
    )
    print(f"sweep {spec.name!r}: {spec.job_count} jobs "
          f"over axes {spec.axes()}  (fingerprint {spec.fingerprint()})")

    sweep = run_campaign(spec,
                         executor=MultiprocessingExecutor(),
                         cache=cache,
                         progress=lambda line: print(f"  {line}"))

    print()
    header = ["threads", "scale", "POSIX bandwidth", "fit time", "input-bound"]
    rows = [[row["threads"], row["scale"], mbps(row["posix_bandwidth"]),
             f"{row['fit_time']:.0f} s", f"{row['input_percent']:.0f} %"]
            for row in sweep.rows()]
    print(format_table(header, rows))

    print("\nfigure shape — bandwidth vs threads at scale 0.02:")
    xs, ys = sweep.series("threads", "posix_bandwidth", where={"scale": 0.02})
    for x, y in zip(xs, ys):
        bar = "#" * max(1, int(y / 1e6))
        print(f"  {x:>3} threads  {bar}  {mbps(y)}")

    best = sweep.best("fit_time", minimize=True, where={"scale": 0.02})
    print(f"\nfastest epoch at scale 0.02: {best.params['threads']} threads "
          f"({best.metrics['fit_time']:.0f} simulated seconds)")


def platform_fleet_sweep(cache: ResultCache, workers: int,
                         full: bool) -> None:
    if full:
        spec = platform_grid_spec(
            osts=(1, 2, 4, 8, 16),
            page_cache_gib=(0.03125, 0.25, 8.0),
            bandwidth_scales=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
            seed=7)
    else:
        spec = platform_grid_spec(seed=7)
    print(f"\nsweep {spec.name!r}: {spec.job_count} jobs over axes "
          f"{spec.axes()} — distributing across {workers} workers")

    executor = DistributedExecutor(workers=workers, cache=cache,
                                   progress=lambda line: print(f"  {line}"))
    sweep = run_campaign(spec, executor=executor, cache=cache,
                         progress=lambda line: print(f"  {line}"))
    assert sweep.ok, sweep.failures

    print("\nfigure shape — cold read bandwidth vs OST count "
          "(1x device bandwidth, 256 MiB page cache):")
    xs, ys = sweep.series("n_osts", "cold_bandwidth",
                          where={"bandwidth_scale": 1.0,
                                 "page_cache_gib": 0.25})
    for x, y in zip(xs, ys):
        bar = "#" * max(1, int(y / 1e8))
        print(f"  {x:>3} OSTs  {bar}  {mbps(y)}")

    print("\nwarm-pass speedup vs page-cache size (4 OSTs, 1x bandwidth):")
    xs, ys = sweep.series("page_cache_gib", "warm_speedup",
                          where={"n_osts": 4, "bandwidth_scale": 1.0})
    for x, y in zip(xs, ys):
        print(f"  {x:>8.5f} GiB  {y:5.1f}x")

    meta = sweep.meta.get("cache", {})
    print(f"\norchestrator cache probes: {meta.get('hits', 0)} hits / "
          f"{meta.get('misses', 0)} misses "
          f"-> rerun this script to see full hits")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="widen the platform grid to 105 jobs")
    parser.add_argument("--workers", type=int, default=3,
                        help="distributed worker processes (default 3)")
    parser.add_argument("--skip-imagenet", action="store_true",
                        help="run only the distributed platform grid")
    args = parser.parse_args()

    cache = ResultCache()
    if not args.skip_imagenet:
        imagenet_sweep(cache)
    platform_fleet_sweep(cache, workers=args.workers, full=args.full)
    print(f"cache: {cache.stats()}")
    print("see examples/http_fleet.py for the HTTP-broker topology "
          "(workers without a shared filesystem)")


if __name__ == "__main__":
    main()
