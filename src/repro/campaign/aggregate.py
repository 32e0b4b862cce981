"""Aggregation of campaign results into table- and figure-shaped views.

The benchmark harnesses consume experiment grids in two shapes: *tables*
(one row per configuration, columns mixing parameters and metrics — the
paper's Table 1/2) and *series* (a metric as a function of one swept
parameter, other parameters fixed — the paper's figures).  A
:class:`CampaignResult` holds the ordered job results of one sweep and
derives both shapes without re-running anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.jobs import JobResult
from repro.campaign.spec import SweepSpec, canonical_json

Predicate = Callable[[JobResult], bool]


def _matches(result: JobResult, where: Optional[Dict[str, Any]]) -> bool:
    if not where:
        return True
    for key, value in where.items():
        if result.params.get(key) != value:
            return False
    return True


@dataclass
class CampaignResult:
    """Ordered results of one campaign, with cache/executor bookkeeping.

    ``meta`` carries per-run orchestration facts that are not derivable
    from the results themselves: the orchestrator's actual cache-probe
    stats (authoritative even when workers in other processes kept their
    own counters), and — for incremental snapshots of a partially drained
    grid — the explicit ``pending``/``running``/``failed`` accounting.
    """

    spec: SweepSpec
    results: List[JobResult]
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0
    executor: str = "serial"
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- basic access ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def ok(self) -> bool:
        """True when every job completed without a captured error."""
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> List[JobResult]:
        """The jobs that completed with an error, in job order."""
        return [result for result in self.results if not result.ok]

    # -- table shape -------------------------------------------------------
    def rows(self, where: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        """One flat dict per job: parameters merged with metrics."""
        rows = []
        for result in self.results:
            if not _matches(result, where):
                continue
            row: Dict[str, Any] = {"job_id": result.job_id, "case": result.case}
            row.update(result.params)
            row.update(result.metrics)
            rows.append(row)
        return rows

    def table(self, columns: Sequence[str],
              where: Optional[Dict[str, Any]] = None) -> List[List[Any]]:
        """Rows restricted/ordered to ``columns`` (for ``format_table``)."""
        return [[row.get(column) for column in columns]
                for row in self.rows(where)]

    # -- figure shape ------------------------------------------------------
    def series(self, x: str, y: str,
               where: Optional[Dict[str, Any]] = None) -> Tuple[List[Any], List[Any]]:
        """``(xs, ys)`` of metric ``y`` against swept parameter ``x``."""
        points = []
        for result in self.results:
            if not _matches(result, where):
                continue
            if x in result.params and y in result.metrics:
                points.append((result.params[x], result.metrics[y]))
        points.sort(key=lambda point: (point[0] is None, point[0]))
        return [p[0] for p in points], [p[1] for p in points]

    def group_by(self, param: str) -> Dict[Any, List[JobResult]]:
        """Results bucketed by one swept parameter's value (job order kept)."""
        groups: Dict[Any, List[JobResult]] = {}
        for result in self.results:
            groups.setdefault(result.params.get(param), []).append(result)
        return groups

    # -- scalar summaries --------------------------------------------------
    def metric(self, y: str, where: Optional[Dict[str, Any]] = None) -> List[float]:
        """Every value of metric ``y`` (optionally filtered), in job order."""
        return [result.metrics[y] for result in self.results
                if _matches(result, where) and y in result.metrics]

    def mean(self, y: str, where: Optional[Dict[str, Any]] = None) -> float:
        """Arithmetic mean of metric ``y``; raises ``KeyError`` if absent."""
        values = self.metric(y, where)
        if not values:
            raise KeyError(f"no values for metric {y!r}")
        return sum(values) / len(values)

    def best(self, y: str, minimize: bool = True,
             where: Optional[Dict[str, Any]] = None) -> JobResult:
        """The job minimizing (or maximizing) metric ``y``; raises
        ``KeyError`` when no matching job carries the metric."""
        candidates = [result for result in self.results
                      if _matches(result, where) and y in result.metrics]
        if not candidates:
            raise KeyError(f"no values for metric {y!r}")
        return (min if minimize else max)(candidates,
                                          key=lambda r: r.metrics[y])

    def one(self, where: Dict[str, Any]) -> JobResult:
        """The unique job matching ``where`` (raises otherwise)."""
        matches = [result for result in self.results if _matches(result, where)]
        if len(matches) != 1:
            raise KeyError(f"expected exactly one job for {where!r}, "
                           f"found {len(matches)}")
        return matches[0]

    # -- identity ----------------------------------------------------------
    def aggregate_fingerprint(self) -> str:
        """Content hash of every job's metrics, in job order.

        Two campaigns over the same spec must produce the same fingerprint
        regardless of executor, caching, or scheduling — this is the
        equality the determinism tests assert.
        """
        payload = canonical_json([
            {"job_id": result.job_id, "metrics": result.metrics,
             "error": result.error}
            for result in self.results
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        """One human-readable line: job/cache counts, executor, wall time."""
        cached = sum(1 for result in self.results if result.cached)
        status = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return (f"campaign {self.spec.name!r}: {len(self.results)} jobs "
                f"({cached} cached) via {self.executor} "
                f"in {self.wall_time:.2f}s wall — {status}")
