"""Live fleet dashboard: ``python -m repro.campaign.dist.stats <broker-url>``.

Polls a running broker's ``GET /stats`` endpoint (see
:mod:`repro.campaign.dist.server`) together with the queue-state listings
and renders a one-line-per-tick fleet summary::

    12:04:07 up 312s | 184.2 req/s | inflight 2 | pending 40 claimed 4 \
done 156 dead 0 | 1.2MB in 8.4MB out | 4 workers @ 12.6 jobs/s

The dashboard is **read-only and constructor-free**: it talks raw
:class:`~repro.campaign.dist.transport.HttpTransport` listings instead of
building a :class:`~repro.campaign.dist.queue.WorkQueue` (whose
constructor persists queue policy — a *dashboard* must never write to the
queue it is watching).  Request rates come from deltas of the broker's
``broker_requests_total`` counter between ticks; per-worker throughput
comes from the metrics snapshots workers attach to heartbeat renewals.

Exit status: ``0`` after a clean run, ``2`` on usage errors (a malformed
broker URL included), ``3`` when the broker does not answer or the URL
is not a broker.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.dist.transport import (
    HttpTransport,
    QueueTransport,
    TransportError,
)
from repro.campaign.jsonio import json_loads_or_none
from repro.campaign.obs import counter_total, series_value
from repro.campaign.spec import is_job_key

#: Listing scan cap per queue state — beyond this the depth column shows a
#: ``+`` suffix (lower bound).  A dashboard tick must not page a
#: million-ticket keyspace.
SCAN_CAP = 10_000

_STATES = ("pending", "claims", "results", "dead")


def queue_depths(transport: QueueTransport,
                 cap: int = SCAN_CAP) -> Dict[str, Tuple[int, bool]]:
    """Count job documents per queue state from paginated listings alone.

    Returns ``{state: (count, truncated)}``; ``truncated`` means the scan
    hit ``cap`` and the count is a lower bound.  No record reads; foreign
    documents (stems not shaped like a job key) are not counted.
    """
    depths: Dict[str, Tuple[int, bool]] = {}
    for state in _STATES:
        head = len(state) + 1
        count, truncated, start_after = 0, False, ""
        while True:
            page, token = transport.list_page(
                f"{state}/", max(1, min(1000, cap)), start_after=start_after)
            count += sum(1 for key in page if key.endswith(".json")
                         and is_job_key(key[head:-5]))
            if token is None:
                break
            if count >= cap:
                truncated = True
                break
            start_after = token
        depths[state] = (count, truncated)
    return depths


def worker_reports(transport: QueueTransport,
                   now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
    """Freshest per-worker metrics snapshot from live claim documents.

    Workers attach :meth:`~repro.campaign.dist.worker.Worker.
    metrics_snapshot` to every heartbeat renewal, so the claims/ listing
    doubles as a fleet health board: one listing and one batched read,
    over any transport, without constructing a queue (and thus without
    writing queue policy).  A worker holding several live claims reports
    its freshest snapshot.
    """
    now = time.time() if now is None else now
    keys = [key for key in transport.list("claims/") if key.endswith(".json")]
    out: Dict[str, Dict[str, Any]] = {}
    for got in transport.get_many(keys):
        lease = json_loads_or_none(got[0]) if got is not None else None
        if not lease or float(lease.get("expires_at", 0.0)) <= now:
            continue
        metrics = lease.get("metrics")
        worker = str(lease.get("worker", "") or "")
        if not worker or not isinstance(metrics, dict):
            continue
        held = out.get(worker)
        if (held is None or float(metrics.get("at", 0.0))
                >= float(held.get("at", 0.0))):
            out[worker] = metrics
    return out


def _fmt_bytes(value: float) -> str:
    if abs(value) < 1024.0:
        return f"{value:.0f}B"
    for unit in ("KB", "MB", "GB"):
        value /= 1024.0
        if abs(value) < 1024.0 or unit == "GB":
            return f"{value:.1f}{unit}"
    return f"{value:.1f}GB"  # pragma: no cover - loop always returns


def _depth_cell(depths: Dict[str, Tuple[int, bool]], state: str) -> str:
    count, truncated = depths.get(state, (0, False))
    return f"{count}{'+' if truncated else ''}"


class FleetSampler:
    """One broker poll per :meth:`line` call; remembers the previous
    sample so counters render as rates."""

    def __init__(self, transport: HttpTransport):
        self.transport = transport
        self._prev_requests: Optional[float] = None
        self._prev_at: Optional[float] = None

    def line(self) -> str:
        """Poll once and render the tick as a single summary line.

        Raises ``TransportError`` when the broker does not answer (the
        CLI maps that to exit code 3)."""
        stats = self.transport.stats()
        depths = queue_depths(self.transport)
        workers = worker_reports(self.transport)
        now = time.monotonic()
        clock = time.strftime("%H:%M:%S")

        server = stats.get("server") or {}
        snapshot = stats.get("metrics") or {}
        uptime = float(server.get("uptime_seconds", 0.0))
        requests = counter_total(snapshot, "broker_requests_total")
        rate = None
        if self._prev_requests is not None and now > self._prev_at:
            rate = max(0.0, (requests - self._prev_requests)
                       / (now - self._prev_at))
        self._prev_requests, self._prev_at = requests, now
        inflight = series_value(snapshot, "gauges",
                                "broker_inflight_requests")
        bytes_in = counter_total(snapshot, "broker_bytes_in_total")
        bytes_out = counter_total(snapshot, "broker_bytes_out_total")

        throughput = sum(float(m.get("jobs_per_second", 0.0))
                         for m in workers.values())
        rate_cell = f"{rate:.1f} req/s" if rate is not None else "... req/s"
        inflight_cell = (f"{inflight:.0f}" if inflight is not None else "-")
        return (f"{clock} up {uptime:.0f}s | {rate_cell} "
                f"| inflight {inflight_cell} "
                f"| pending {_depth_cell(depths, 'pending')} "
                f"claimed {_depth_cell(depths, 'claims')} "
                f"done {_depth_cell(depths, 'results')} "
                f"dead {_depth_cell(depths, 'dead')} "
                f"| {_fmt_bytes(bytes_in)} in {_fmt_bytes(bytes_out)} out "
                f"| {len(workers)} workers @ {throughput:.1f} jobs/s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.dist.stats",
        description="Live fleet summary for a repro campaign broker.")
    parser.add_argument("broker", help="broker URL, e.g. http://host:8080")
    parser.add_argument("--watch", action="store_true",
                        help="keep polling until interrupted "
                             "(default: one line and exit)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls with --watch "
                             "(default: 2.0)")
    parser.add_argument("--ticks", type=int, default=0,
                        help="with --watch, stop after N lines "
                             "(0 = until interrupted; used by tests)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not str(args.broker).startswith(("http://", "https://")):
        print(f"error: not a broker URL: {args.broker!r}", file=sys.stderr)
        return 2
    # A short retry budget keeps a dead broker from stalling the tick
    # behind a full backoff schedule.
    try:
        transport = HttpTransport(args.broker, retries=1, retry_delay=0.1)
    except ValueError as exc:
        print(f"error: bad broker URL {args.broker!r}: {exc}",
              file=sys.stderr)
        return 2
    sampler = FleetSampler(transport)
    ticks = 0
    try:
        while True:
            try:
                print(sampler.line(), flush=True)
            except (TransportError, OSError) as exc:
                print(f"error: broker unreachable: {exc}", file=sys.stderr)
                return 3
            ticks += 1
            if not args.watch or (args.ticks and ticks >= args.ticks):
                return 0
            time.sleep(max(0.0, args.interval))
    except KeyboardInterrupt:
        return 0
    finally:
        transport.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
