"""Incremental aggregation: query a grid while workers are still draining it.

A large campaign spends minutes-to-hours in flight; waiting for the last
job before looking at any result wastes the first ones.
:func:`snapshot_campaign` materializes a
:class:`~repro.campaign.aggregate.CampaignResult` from whatever subset of a
queue's jobs has completed *right now* — in deterministic job order, so two
snapshots at the same completion state aggregate identically — together
with explicit accounting of what is still ``pending``, currently
``running`` and terminally ``failed``.  Every table/figure/series helper of
``CampaignResult`` works on the partial result unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.campaign.aggregate import CampaignResult
from repro.campaign.dist.queue import WorkQueue
from repro.campaign.jobs import JobResult
from repro.campaign.spec import SweepSpec


@dataclass
class CampaignSnapshot:
    """A point-in-time view of a (possibly partially drained) campaign.

    ``result`` aggregates every job that has *completed* — successfully or
    with a captured workload error — in spec expansion order.  The three
    key lists account for everything else:

    * ``pending``: not yet claimed, not yet enqueued, or claimed by a
      worker whose lease has expired (a crashed worker's job is
      requeueable work, not progress — reported as pending even before a
      scavenger has moved the ticket back);
    * ``running``: currently claimed under a live lease;
    * ``failed``: terminally failed — dead-lettered after exhausting retry
      attempts, or completed with a workload error (those also appear in
      ``result`` so their error strings stay queryable).
    """

    spec: SweepSpec
    result: CampaignResult
    pending: List[str] = field(default_factory=list)
    running: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    total: int = 0

    @property
    def done(self) -> int:
        """Jobs with a persisted result (including completed-with-error)."""
        return len(self.result)

    @property
    def complete(self) -> bool:
        """True once no job is pending or running (failures included)."""
        return not self.pending and not self.running

    @property
    def progress(self) -> float:
        """Fraction of the grid in a terminal state (done or dead)."""
        if self.total == 0:
            return 1.0
        done_ids = {result.job_id for result in self.result}
        dead = sum(1 for key in self.failed if key not in done_ids)
        return (self.done + dead) / self.total

    def summary(self) -> str:
        """One human-readable progress line for status displays."""
        return (f"campaign {self.spec.name!r}: {self.done}/{self.total} done, "
                f"{len(self.running)} running, {len(self.pending)} pending, "
                f"{len(self.failed)} failed "
                f"({100.0 * self.progress:.0f}% terminal)")


def snapshot_campaign(spec: SweepSpec, queue: WorkQueue) -> CampaignSnapshot:
    """Aggregate whatever subset of ``spec``'s jobs the queue has finished.

    Jobs the queue has never seen count as pending, so a snapshot taken
    before (or halfway through) enqueueing is still truthful.
    """
    jobs = spec.expand()
    results = queue.results()
    dead = queue.dead()
    # Live leases only: a claim whose worker stopped heartbeating is
    # requeueable, and reporting it as "running" would make a stalled
    # fleet look healthy forever.
    claimed = set(queue.live_claimed_keys())

    completed: List[JobResult] = []
    pending: List[str] = []
    running: List[str] = []
    failed: List[str] = []
    for job in jobs:
        key = job.job_id
        if key in results:
            result = results[key]
            completed.append(result)
            if not result.ok:
                failed.append(key)
        elif key in dead:
            failed.append(key)
        elif key in claimed:
            running.append(key)
        else:
            pending.append(key)

    result = CampaignResult(
        spec=spec,
        results=completed,
        executor="distributed",
        meta={"incremental": {
            "total": len(jobs),
            "done": len(completed),
            "pending": len(pending),
            "running": len(running),
            "failed": len(failed),
        }},
    )
    return CampaignSnapshot(spec=spec, result=result, pending=pending,
                            running=running, failed=failed, total=len(jobs))
