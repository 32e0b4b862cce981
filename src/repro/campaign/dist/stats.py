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

A sharded fleet is watched with the same comma-separated address the
workers use (``python -m repro.campaign.dist.stats
http://b1:8123,http://b2:8123``): every shard is polled each tick and
the aggregate summary line (depths summed, request rates summed, worker
snapshots merged freshest-per-worker) is followed by one indented row
per shard.  The dashboard polls per-shard transports directly rather
than constructing a router, because the router's epoch handshake writes
``meta/epoch`` — and a dashboard must never write.

An *unreachable* shard — or a URL that is not a broker — renders as a
``DOWN`` row while the aggregate line keeps summing the reachable shards
(``N/M shards``) — a dashboard watching a degraded fleet must show the
degradation, not die of it.  Exit status: ``0``
after a clean run, ``2`` on usage errors, ``3`` only when **no** shard
answers.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.dist.transport import HttpTransport, TransportError
from repro.campaign.jsonio import json_loads_or_none
from repro.campaign.obs import counter_total, series_value

#: Listing scan cap per queue state — beyond this the depth column shows a
#: ``+`` suffix (lower bound).  A dashboard tick must not page a
#: million-ticket keyspace.
SCAN_CAP = 10_000

_STATES = ("pending", "claims", "results", "dead")


def queue_depths(transport: HttpTransport,
                 cap: int = SCAN_CAP) -> Dict[str, Tuple[int, bool]]:
    """Count keys per queue state from paginated listings alone.

    Returns ``{state: (count, truncated)}``; ``truncated`` means the scan
    hit ``cap`` and the count is a lower bound.  No record reads.
    """
    depths: Dict[str, Tuple[int, bool]] = {}
    for state in _STATES:
        count, truncated, start_after = 0, False, ""
        while True:
            page, token = transport.list_page(
                f"{state}/", max(1, min(1000, cap)), start_after=start_after)
            count += len(page)
            if token is None:
                break
            if count >= cap:
                truncated = True
                break
            start_after = token
        depths[state] = (count, truncated)
    return depths


def worker_reports(transport: HttpTransport,
                   now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
    """Freshest per-worker metrics snapshot from live claim documents.

    Workers attach :meth:`~repro.campaign.dist.worker.Worker.
    metrics_snapshot` to every heartbeat renewal, so the claims/ listing
    doubles as a fleet health board.  Mirrors
    :meth:`~repro.campaign.dist.queue.WorkQueue.worker_metrics` without
    constructing a queue (and thus without writing queue policy).
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


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "-"
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


class _ShardSample:
    """One shard's poll: server stats, queue depths, worker reports.

    An unreachable shard yields a *down* sample (:meth:`down_sample`):
    empty depths and workers, ``error`` holding the failure — rendered
    as a ``DOWN`` row instead of killing the whole dashboard tick.
    """

    def __init__(self, transport: HttpTransport):
        self.down = False
        self.error: Optional[str] = None
        stats = transport.stats()
        self.depths = queue_depths(transport)
        self.workers = worker_reports(transport)
        self.rate: Optional[float] = None
        server = stats.get("server") or {}
        snapshot = stats.get("metrics") or {}
        self.uptime: Optional[float] = float(
            server.get("uptime_seconds", 0.0))
        self.requests: Optional[float] = counter_total(
            snapshot, "broker_requests_total")
        self.inflight: Optional[float] = series_value(
            snapshot, "gauges", "broker_inflight_requests")
        self.bytes_in: Optional[float] = counter_total(
            snapshot, "broker_bytes_in_total")
        self.bytes_out: Optional[float] = counter_total(
            snapshot, "broker_bytes_out_total")

    @classmethod
    def down_sample(cls, error: BaseException) -> "_ShardSample":
        """A placeholder sample for a shard that did not answer."""
        sample = cls.__new__(cls)
        sample.down = True
        sample.error = f"{type(error).__name__}: {error}"
        sample.depths = {}
        sample.workers = {}
        sample.uptime = None
        sample.requests = None
        sample.rate = None
        sample.inflight = None
        sample.bytes_in = None
        sample.bytes_out = None
        return sample


def _merge_depths(samples: List[_ShardSample]) -> Dict[str, Tuple[int, bool]]:
    merged: Dict[str, Tuple[int, bool]] = {}
    for state in _STATES:
        count, truncated = 0, False
        for sample in samples:
            shard_count, shard_truncated = sample.depths.get(
                state, (0, False))
            count += shard_count
            truncated = truncated or shard_truncated
        merged[state] = (count, truncated)
    return merged


def _merge_workers(samples: List[_ShardSample]) -> Dict[str, Dict[str, Any]]:
    """Fleet-wide per-worker snapshots, freshest wins.

    A worker on a sharded fleet heartbeats whichever shard holds its
    current claim, so the same worker id can appear on several shards;
    its one freshest snapshot already describes the whole process."""
    merged: Dict[str, Dict[str, Any]] = {}
    for sample in samples:
        for worker, metrics in sample.workers.items():
            held = merged.get(worker)
            if (held is None or float(metrics.get("at", 0.0))
                    >= float(held.get("at", 0.0))):
                merged[worker] = metrics
    return merged


def _sum_or_none(values: List[Optional[float]]) -> Optional[float]:
    known = [value for value in values if value is not None]
    return sum(known) if known else None


class FleetSampler:
    """One poll of every shard per :meth:`line` call; remembers the
    previous sample so counters render as rates.

    Accepts a single broker transport or a list of per-shard transports
    (one per URL in a ``http://b1,http://b2`` fleet address).  With one
    shard the output is the familiar single summary line; with several,
    the aggregate line is followed by one indented row per shard."""

    def __init__(self, transport) -> None:
        if isinstance(transport, (list, tuple)):
            self.shards: List[HttpTransport] = list(transport)
        else:
            self.shards = [transport]
        if not self.shards:
            raise ValueError("FleetSampler needs at least one shard")
        self._prev_requests: List[Optional[float]] = [None] * len(self.shards)
        self._prev_at: List[Optional[float]] = [None] * len(self.shards)

    def _poll(self) -> List[_ShardSample]:
        samples = []
        for index, shard in enumerate(self.shards):
            try:
                sample = _ShardSample(shard)
            except (TransportError, OSError) as exc:
                # One dead shard must not blind the dashboard to the
                # rest of the fleet: render it DOWN and keep polling.
                samples.append(_ShardSample.down_sample(exc))
                continue
            now = time.monotonic()
            prev_requests = self._prev_requests[index]
            prev_at = self._prev_at[index]
            if (sample.requests is not None and prev_requests is not None
                    and prev_at is not None and now > prev_at):
                sample.rate = max(0.0, (sample.requests - prev_requests)
                                  / (now - prev_at))
            if sample.requests is not None:
                self._prev_requests[index] = sample.requests
                self._prev_at[index] = now
            samples.append(sample)
        return samples

    def line(self) -> str:
        """Poll every shard once and render the tick.

        One aggregate summary line; fleets with more than one shard get
        an extra indented row per shard under it.  Unreachable shards
        render as ``DOWN`` rows while the aggregate line sums the
        reachable shards (with an ``N/M shards`` cell); only when **no**
        shard answers does the tick raise ``TransportError`` (the CLI
        maps that to exit code 3)."""
        samples = self._poll()
        up = [sample for sample in samples if not sample.down]
        if not up:
            errors = "; ".join(sample.error or "unreachable"
                               for sample in samples)
            raise TransportError(
                f"no shard answered ({len(samples)} polled): {errors}")
        clock = time.strftime("%H:%M:%S")
        depths = _merge_depths(samples)
        workers = _merge_workers(samples)
        rate = _sum_or_none([sample.rate for sample in samples])
        uptimes = [sample.uptime for sample in samples
                   if sample.uptime is not None]
        uptime = max(uptimes) if uptimes else None  # oldest shard
        inflight = _sum_or_none([sample.inflight for sample in samples])
        bytes_in = _sum_or_none([sample.bytes_in for sample in samples])
        bytes_out = _sum_or_none([sample.bytes_out for sample in samples])

        throughput = sum(float(m.get("jobs_per_second", 0.0))
                         for m in workers.values())
        up_cell = f"{uptime:.0f}s" if uptime is not None else "-"
        rate_cell = f"{rate:.1f} req/s" if rate is not None else "... req/s"
        inflight_cell = (f"{inflight:.0f}" if inflight is not None else "-")
        summary = (f"{clock} up {up_cell} | {rate_cell} "
                   f"| inflight {inflight_cell} "
                   f"| pending {_depth_cell(depths, 'pending')} "
                   f"claimed {_depth_cell(depths, 'claims')} "
                   f"done {_depth_cell(depths, 'results')} "
                   f"dead {_depth_cell(depths, 'dead')} "
                   f"| {_fmt_bytes(bytes_in)} in {_fmt_bytes(bytes_out)} out "
                   f"| {len(workers)} workers @ {throughput:.1f} jobs/s")
        if len(self.shards) == 1:
            return summary
        summary += f" | {len(up)}/{len(samples)} shards"
        rows = [summary]
        for shard, sample in zip(self.shards, samples):
            url = getattr(shard, "base_url", shard)
            if sample.down:
                rows.append(f"  shard {url} | DOWN ({sample.error})")
                continue
            shard_rate = (f"{sample.rate:.1f} req/s"
                          if sample.rate is not None else "... req/s")
            rows.append(
                f"  shard {url} "
                f"| {shard_rate} "
                f"| pending {_depth_cell(sample.depths, 'pending')} "
                f"claimed {_depth_cell(sample.depths, 'claims')} "
                f"done {_depth_cell(sample.depths, 'results')} "
                f"dead {_depth_cell(sample.depths, 'dead')} "
                f"| {len(sample.workers)} workers")
        return "\n".join(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.dist.stats",
        description="Live fleet summary for a repro campaign broker.")
    parser.add_argument("broker",
                        help="broker URL, e.g. http://host:8080 — or a "
                             "comma-separated shard list "
                             "(http://b1:8123,http://b2:8123) for an "
                             "aggregate line plus per-shard rows")
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
    urls = [part.strip() for part in str(args.broker).split(",")
            if part.strip()]
    if not urls or not all(url.startswith(("http://", "https://"))
                           for url in urls):
        print(f"error: not a broker URL: {args.broker!r}", file=sys.stderr)
        return 2
    # Per-shard transports, NOT a ShardedTransport: the router's epoch
    # handshake writes ``meta/epoch``, and a dashboard must never write
    # to the fleet it is watching.  A short retry budget keeps a DOWN
    # shard from stalling every tick behind a full backoff schedule —
    # the next poll is the dashboard's retry.
    transports = [HttpTransport(url, retries=1, retry_delay=0.1)
                  for url in urls]
    sampler = FleetSampler(transports)
    ticks = 0
    try:
        while True:
            try:
                # line() absorbs per-shard outages (DOWN rows) and raises
                # only when not a single shard answered.
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
        for transport in transports:
            transport.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
