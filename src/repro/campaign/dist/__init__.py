"""Distributed campaign execution: durable queue, transports, worker fleet.

The ROADMAP's distributed-executor seam, realized as cooperating pieces
that any mix of threads, processes and hosts can participate in:

* :class:`~repro.campaign.dist.transport.QueueTransport` — the pluggable
  storage contract over opaque keys: three primitives (batch
  ``get_many``, conditional ``mutate_many`` and paginated ``list_page``)
  from which get/put/compare-and-swap/delete/list are derived, with three
  implementations:
  :class:`~repro.campaign.dist.transport.
  FsTransport` (shared directory), :class:`~repro.campaign.dist.transport.
  MemoryTransport` (in-process, thread fleets) and
  :class:`~repro.campaign.dist.transport.HttpTransport` (``/batch`` and
  ``/list`` against the :mod:`repro.campaign.dist.server` broker,
  ``python -m repro.campaign.dist.server``, served by one asyncio event
  loop).
  The HTTP transport also speaks ``POST /claim`` — the whole claim scan
  runs broker-side in one round trip; directory and in-memory transports
  run the same scan client-side.  The result cache rides the same
  contract (:func:`~repro.campaign.cache.open_cache`), so broker fleets
  deduplicate without any shared filesystem.  One broker serves a whole
  fleet.
  :class:`~repro.campaign.dist.chaos.ChaosTransport` wraps any transport
  with a deterministic :class:`~repro.campaign.dist.chaos.FaultPlan`
  (seeded error rates, latency, partition windows, torn writes) for
  failure-injection tests — see ``docs/robustness.md``;
* :class:`~repro.campaign.dist.queue.WorkQueue` — durable work queue over
  any transport, every document named by its job key, with
  conditional-create claims whose documents double as heartbeat-renewed
  leases, a retry policy and a max-attempt dead-letter state
  (``retry_dead()`` is the recovery path);
* :class:`~repro.campaign.dist.worker.Worker` (CLI:
  ``python -m repro.campaign.dist.worker --queue DIR_OR_URL``) — the
  claim, cache-deduplicate, execute, heartbeat loop;
* :func:`~repro.campaign.dist.incremental.snapshot_campaign` — incremental
  aggregation: a partially drained grid is already queryable, with explicit
  pending/running/failed accounting;
* :class:`~repro.campaign.dist.executor.DistributedExecutor` — ties them
  together behind the same ``map(fn, jobs)`` seam as the in-process
  executors, so ``run_campaign(spec, executor=DistributedExecutor(
  workers=N))`` is the only change a campaign needs.

The whole stack is instrumented through :mod:`repro.campaign.obs`
(metrics registry, job spans, structured logs): the broker serves its
counters on ``GET /stats``, workers attach throughput snapshots to
heartbeat renewals, the executor can write a Perfetto-loadable
``trace.json`` per ``map`` (``trace_path=``), and
``python -m repro.campaign.dist.stats <broker-url> --watch`` renders the
live fleet summary.

Architecture notes live in ``docs/architecture.md``; the queue state
machine, transports and operational recipes in ``docs/distributed.md``,
``docs/cookbook.md`` and ``docs/observability.md``.
"""

from repro.campaign.dist.chaos import ChaosTransport, FaultPlan
from repro.campaign.dist.executor import DistributedExecutor
from repro.campaign.dist.incremental import CampaignSnapshot, snapshot_campaign
from repro.campaign.dist.queue import WorkItem, WorkQueue
from repro.campaign.dist.transport import (
    FsTransport,
    HttpTransport,
    MemoryTransport,
    QueueTransport,
    TransportError,
    transport_from_address,
)


def __getattr__(name: str):
    # Lazy so `python -m repro.campaign.dist.worker` (and .server) do not
    # find the module pre-imported in sys.modules (runpy's double-import
    # warning).
    if name == "Worker":
        from repro.campaign.dist.worker import Worker

        return Worker
    if name == "Broker":
        from repro.campaign.dist.server import Broker

        return Broker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Broker",
    "CampaignSnapshot",
    "ChaosTransport",
    "DistributedExecutor",
    "FaultPlan",
    "FsTransport",
    "HttpTransport",
    "MemoryTransport",
    "QueueTransport",
    "TransportError",
    "WorkItem",
    "WorkQueue",
    "Worker",
    "snapshot_campaign",
    "transport_from_address",
]
