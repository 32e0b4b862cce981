#!/usr/bin/env python
"""The broker topology end to end, in one process.

This demo stands up the whole "campaigns past a shared filesystem" stack
from docs/cookbook.md:

1. an HTTP queue broker (`repro.campaign.dist.server`) with a disk-backed
   store, as you would run on a queue host;
2. a fixed-size `DistributedExecutor` fleet pointed at the broker *URL* —
   the worker processes it spawns talk to the queue **and the result cache**
   purely over HTTP (`--queue`/`--cache` the same broker), exactly like
   workers on other machines would: no shared filesystem anywhere;
3. a mid-flight `snapshot_campaign` poll over the same URL, showing a
   half-drained grid aggregating early;
4. the serial==distributed fingerprint check, proving the transport hop
   changed nothing about the results — plus a warm re-run served entirely
   from the broker-hosted cache.

Run with:  python examples/http_fleet.py [--jobs {12,36}] [--workers N]
"""

import argparse
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.campaign import (
    DistributedExecutor,
    HttpTransport,
    SerialExecutor,
    WorkQueue,
    open_cache,
    run_campaign,
    snapshot_campaign,
)
from repro.campaign.dist.server import Broker
from repro.workloads import platform_grid_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, choices=(12, 36), default=12,
                        help="platform-grid size (default 12)")
    parser.add_argument("--workers", type=int, default=3,
                        help="worker processes in the fleet (default 3)")
    args = parser.parse_args()

    if args.jobs == 12:
        spec = platform_grid_spec(osts=(1, 2, 8),
                                  page_cache_gib=(0.03125, 8.0),
                                  bandwidth_scales=(0.5, 2.0),
                                  files=8, file_kib=8192, readers=4, seed=13)
    else:
        spec = platform_grid_spec(seed=13)

    with tempfile.TemporaryDirectory(prefix="repro-broker-") as state_dir:
        with Broker(data_dir=state_dir) as broker:
            print(f"broker up at {broker.url} (state: {state_dir})")

            # A status thread polls the queue over HTTP while the fleet
            # drains it — any host could run this snapshot loop.
            stop = threading.Event()

            def poll_progress():
                queue = WorkQueue(transport=HttpTransport(broker.url))
                while not stop.wait(0.5):
                    snap = snapshot_campaign(spec, queue)
                    print(f"  [snapshot] {snap.summary()}")

            # The result cache lives behind the same broker URL as the
            # queue: spawned workers get `--cache http://...` and
            # deduplicate with no shared filesystem at all.
            cache = open_cache(broker.url)
            executor = DistributedExecutor(transport=broker.url,
                                           workers=args.workers,
                                           cache=cache,
                                           lease_seconds=10.0,
                                           poll_interval=0.05,
                                           progress=lambda line: print(
                                               f"  {line}"))
            print(f"running {spec.job_count}-job grid through "
                  f"{args.workers} workers")
            watcher = threading.Thread(target=poll_progress, daemon=True)
            watcher.start()
            start = time.perf_counter()
            distributed = run_campaign(spec, executor=executor, cache=cache)
            elapsed = time.perf_counter() - start
            stop.set()
            watcher.join(timeout=2.0)
            assert distributed.ok, distributed.failures
            print(f"fleet drained {len(distributed)} jobs in {elapsed:.1f}s "
                  f"({executor.respawns} respawns)")

            start = time.perf_counter()
            warm = run_campaign(spec, cache=cache)
            print(f"warm re-run over the broker cache: "
                  f"{warm.cache_hits}/{len(warm)} hits in "
                  f"{time.perf_counter() - start:.2f}s "
                  f"(no shared directory, no re-execution)")
            assert warm.cache_hits == len(warm)

    print("re-running serially to verify the transport changed nothing...")
    serial = run_campaign(spec, executor=SerialExecutor())
    match = (serial.aggregate_fingerprint()
             == distributed.aggregate_fingerprint())
    print(f"serial == distributed aggregates: {match}")
    assert match

    print("\ncold-read bandwidth vs OST count (1x bandwidth):")
    xs, ys = distributed.series("n_osts", "cold_bandwidth",
                                where={"bandwidth_scale": 1.0}
                                if args.jobs == 36 else None)
    if not xs:
        xs, ys = distributed.series("n_osts", "cold_bandwidth")
    for x, y in zip(xs, ys):
        print(f"  {x:>3} OSTs  {'#' * max(1, int(y / 1e8))}  "
              f"{y / 1e6:,.0f} MB/s")


if __name__ == "__main__":
    main()
