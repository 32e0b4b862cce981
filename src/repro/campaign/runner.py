"""Campaign orchestration: expand → cache-probe → execute → aggregate.

:func:`run_campaign` is the single entry point the benchmarks, examples and
tools use: it expands a :class:`~repro.campaign.spec.SweepSpec` into jobs,
serves whatever it can from the content-hash cache, fans the rest out
through the chosen executor, persists fresh results, and returns a
:class:`~repro.campaign.aggregate.CampaignResult` in deterministic job
order.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from repro.campaign.aggregate import CampaignResult
from repro.campaign.cache import TransportResultCache, open_cache
from repro.campaign.executors import SerialExecutor
from repro.campaign.jobs import (
    JobResult,
    execute_job,
    result_from_record_or_none,
)
from repro.campaign.spec import JobSpec, SweepSpec


def run_campaign(spec: SweepSpec,
                 executor: Optional[Any] = None,
                 cache: Optional[TransportResultCache] = None,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None) -> CampaignResult:
    """Run (or re-serve) every job of ``spec`` and aggregate the results.

    Parameters
    ----------
    executor:
        Anything with an order-preserving ``map(fn, jobs)``; defaults to
        :class:`SerialExecutor`.  Pass a
        :class:`~repro.campaign.executors.MultiprocessingExecutor` to fan
        out across cores.
    cache / cache_dir:
        Results are read from and written to a result cache.  ``cache``
        takes a cache object (any :class:`~repro.campaign.cache.
        TransportResultCache`) and wins over ``cache_dir``, which takes a
        directory *or* broker URL via
        :func:`~repro.campaign.cache.open_cache`.  Pass neither to run
        uncached (e.g. in determinism tests), and note failed jobs are
        never cached.
    progress:
        Optional callable receiving human-readable status lines.
    """
    executor = executor or SerialExecutor()
    if cache is None and cache_dir is not None:
        cache = open_cache(cache_dir)

    say = progress or (lambda _line: None)
    start = time.perf_counter()
    jobs = spec.expand()
    say(f"campaign {spec.name!r}: {len(jobs)} jobs expanded "
        f"({spec.fingerprint()})")

    results: List[Optional[JobResult]] = [None] * len(jobs)
    pending: List[JobSpec] = []
    pending_slots: List[int] = []
    hits = 0
    # One batched probe, not a blocking round trip per job: over a
    # broker-backed cache a cold grid costs a handful of ``/batch``
    # requests instead of O(jobs).
    records = (cache.get_many(jobs) if cache is not None
               else [None] * len(jobs))
    for slot, (job, record) in enumerate(zip(jobs, records)):
        served = result_from_record_or_none(record, cached=True)
        if served is not None:
            results[slot] = served
            hits += 1
        else:
            pending.append(job)
            pending_slots.append(slot)

    if pending:
        say(f"executing {len(pending)} jobs "
            f"({hits} cache hits) via {getattr(executor, 'name', executor)}")
        fresh = executor.map(execute_job, pending)
        if len(fresh) != len(pending):
            raise RuntimeError(
                f"executor {executor!r} returned {len(fresh)} results for "
                f"{len(pending)} jobs — the map() contract requires one "
                f"result per job, in order")
        # Executors whose workers already write this same cache store
        # (distributed fleets) persisted every fresh result themselves;
        # re-putting identical records here would just burn writes.  The
        # executor must *also* confirm its fleet actually reached the
        # cache — a process fleet given an address-less cache never did,
        # and the orchestrator's put here is then the only persistence.
        # Cache-served results (cached=True) never need a put.
        executor_cache = getattr(executor, "cache", None)
        executor_address = getattr(executor_cache, "address", None)
        workers_own_cache = (cache is not None and executor_cache is not None
                             and (executor_cache is cache
                                  or (executor_address is not None
                                      and executor_address
                                      == getattr(cache, "address", None)))
                             and getattr(executor, "workers_share_cache",
                                         True))
        for slot, job, result in zip(pending_slots, pending, fresh):
            results[slot] = result
            if (cache is not None and result.ok
                    and not result.cached and not workers_own_cache):
                cache.put(job, {"result": result.to_record()})
    else:
        say(f"all {len(jobs)} jobs served from cache")

    campaign = CampaignResult(
        spec=spec,
        results=[result for result in results if result is not None],
        cache_hits=hits,
        cache_misses=len(pending),
        wall_time=time.perf_counter() - start,
        executor=getattr(executor, "name", type(executor).__name__),
        # Authoritative per-run cache accounting, counted from the probes
        # this orchestrator actually made (ResultCache's own counters are
        # per-instance and per-process — see its class docs).
        meta={"cache": {"enabled": cache is not None,
                        "probes": len(jobs) if cache is not None else 0,
                        "hits": hits if cache is not None else 0,
                        "misses": len(pending) if cache is not None else 0}},
    )
    say(campaign.summary())
    return campaign

