"""Experiment-campaign layer: declarative sweeps over the paper's runners.

The paper's evaluation is a grid of training runs — platforms × thread
counts × container formats × staging thresholds — that the seed repository
could only launch one ``run_*`` call at a time.  ``repro.campaign`` turns
such a grid into a first-class object:

>>> from repro.campaign import SweepSpec, run_campaign
>>> spec = SweepSpec(
...     name="imagenet-threads",
...     case="imagenet",
...     base={"scale": 0.05, "batch_size": 256, "profile": "epoch"},
...     grid={"threads": [1, 4, 28]},
... )
>>> result = run_campaign(spec)           # serial, uncached
>>> xs, ys = result.series("threads", "posix_bandwidth")

Jobs carry content-derived identities and seeds, execute through pluggable
executors (serial, ``multiprocessing``, or a distributed worker fleet —
see :mod:`repro.campaign.dist`), results are
content-hash cached — in a directory or behind the HTTP broker, via the
same pluggable transports as the work queue
(:func:`~repro.campaign.cache.open_cache`) — so re-running an unchanged
grid is near-instant and broker fleets deduplicate without any shared
filesystem, and aggregation yields the table/figure shapes the benchmark
harnesses consume.  Partially drained distributed grids are queryable
early via :func:`~repro.campaign.dist.incremental.snapshot_campaign`.
"""

from repro.campaign.aggregate import CampaignResult
from repro.campaign.cache import (
    PHYSICS_VERSION,
    ResultCache,
    TransportResultCache,
    default_cache_dir,
    open_cache,
)
from repro.campaign.dist import (
    CampaignSnapshot,
    DistributedExecutor,
    FsTransport,
    HttpTransport,
    MemoryTransport,
    QueueTransport,
    TransportError,
    WorkQueue,
    snapshot_campaign,
)
from repro.campaign.executors import (
    MultiprocessingExecutor,
    SerialExecutor,
)
from repro.campaign.jobs import (
    JobResult,
    UnknownCaseError,
    available_cases,
    execute_job,
    get_case,
    register_case,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import JobSpec, SpecError, SweepSpec, canonical_json

__all__ = [
    "CampaignResult",
    "CampaignSnapshot",
    "DistributedExecutor",
    "FsTransport",
    "HttpTransport",
    "JobResult",
    "JobSpec",
    "MemoryTransport",
    "QueueTransport",
    "TransportError",
    "MultiprocessingExecutor",
    "PHYSICS_VERSION",
    "ResultCache",
    "SerialExecutor",
    "SpecError",
    "SweepSpec",
    "TransportResultCache",
    "UnknownCaseError",
    "WorkQueue",
    "snapshot_campaign",
    "available_cases",
    "canonical_json",
    "default_cache_dir",
    "execute_job",
    "get_case",
    "open_cache",
    "register_case",
    "run_campaign",
]
