"""Job execution: the case registry and the worker-side entry point.

A *case* is a named function ``(params, seed) -> metrics`` where ``params``
is a flat dict of JSON scalars and ``metrics`` is a flat-ish JSON-able dict
of measurements.  The heavyweight cases ("imagenet", "malware", "stream",
"overhead") are registered by :mod:`repro.workloads.runner`, which adapts
the paper's experiment runners; the "synthetic" case defined here runs a
small pure-kernel simulation and exists so campaign mechanics can be
exercised (and tested) in milliseconds.

:func:`execute_job` is the function executors ship to worker processes; it
is importable at module scope (picklable by reference) and returns a
:class:`JobResult` that serializes losslessly through the disk cache.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.campaign.spec import JobSpec

CaseRunner = Callable[[Dict[str, Any], int], Dict[str, Any]]

_CASES: Dict[str, CaseRunner] = {}

#: Modules imported on demand when a case name is not yet registered.
#: Keeping the workload adapters out of this module avoids importing the
#: full tfmini/darshan stack for campaigns over lightweight cases.
_CASE_PROVIDERS = ("repro.workloads.runner",)

#: Environment variable naming extra provider modules (colon-separated).
#: Distributed worker processes use it to load custom cases that were
#: registered by the orchestrator's own imports rather than by a module
#: in the default provider list.
CASE_PROVIDERS_ENV = "REPRO_CASE_PROVIDERS"


def _providers() -> Tuple[str, ...]:
    extra = os.environ.get(CASE_PROVIDERS_ENV, "")
    return _CASE_PROVIDERS + tuple(
        module for module in extra.split(":") if module)


class UnknownCaseError(KeyError):
    """Raised when a job references a case nobody registered."""


def register_case(name: str) -> Callable[[CaseRunner], CaseRunner]:
    """Decorator: register ``fn`` as the runner for case ``name``."""

    def decorator(fn: CaseRunner) -> CaseRunner:
        _CASES[name] = fn
        return fn

    return decorator


def get_case(name: str) -> CaseRunner:
    """Look up a case runner, importing the workload adapters on demand."""
    if name not in _CASES:
        for module in _providers():
            importlib.import_module(module)
    try:
        return _CASES[name]
    except KeyError:
        raise UnknownCaseError(
            f"unknown case {name!r}; registered: {sorted(_CASES)}") from None


def available_cases() -> List[str]:
    """Every registered case name, after importing all provider modules
    (the defaults plus ``REPRO_CASE_PROVIDERS`` entries)."""
    for module in _providers():
        importlib.import_module(module)
    return sorted(_CASES)


@dataclass
class JobResult:
    """Outcome of one executed (or cache-served) job."""

    job_id: str
    case: str
    params: Mapping[str, Any]
    seed: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    wall_time: float = 0.0
    cached: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job ran (or was served) without a captured error."""
        return self.error is None

    def to_record(self) -> Dict[str, Any]:
        """JSON-able dict that :meth:`from_record` round-trips losslessly
        (``cached`` is transport state, not content, and is excluded)."""
        return {
            "job_id": self.job_id,
            "case": self.case,
            "params": dict(self.params),
            "seed": self.seed,
            "metrics": self.metrics,
            "wall_time": self.wall_time,
            "error": self.error,
        }

    @staticmethod
    def from_record(record: Mapping[str, Any], cached: bool = False) -> "JobResult":
        """Rebuild a result from :meth:`to_record` output; raises
        ``KeyError`` on a foreign schema (see
        :func:`result_from_record_or_none` for the tolerant path)."""
        return JobResult(job_id=record["job_id"], case=record["case"],
                         params=dict(record["params"]), seed=record["seed"],
                         metrics=dict(record["metrics"]),
                         wall_time=record.get("wall_time", 0.0),
                         cached=cached, error=record.get("error"))


def result_from_record_or_none(record: Optional[Mapping[str, Any]],
                               cached: bool = False) -> Optional[JobResult]:
    """Decode a persisted ``{"result": ...}`` record, or ``None``.

    The single tolerant-decode path shared by every consumer of stored
    results (cache probes in the orchestrator and workers, the work
    queue's results directory): a record from a stale or foreign schema
    is "absent" — recompute — never a crash.
    """
    if not record:
        return None
    payload = record.get("result")
    if not payload:
        return None
    try:
        return JobResult.from_record(payload, cached=cached)
    except (KeyError, TypeError, ValueError):
        return None


def execute_job(job: JobSpec) -> JobResult:
    """Run one job to completion.  Importable at module scope (picklable).

    Workload exceptions are captured into ``JobResult.error`` instead of
    killing the executor: one diverging configuration must not take down a
    whole campaign (failed jobs are reported, never cached).
    """
    runner = get_case(job.case)
    start = time.perf_counter()
    try:
        metrics = runner(dict(job.params), job.seed)
    except Exception as exc:  # noqa: BLE001 - isolate per-job failures
        return JobResult(job_id=job.job_id, case=job.case, params=job.params,
                         seed=job.seed, wall_time=time.perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}")
    return JobResult(job_id=job.job_id, case=job.case, params=job.params,
                     seed=job.seed, metrics=dict(metrics),
                     wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Built-in lightweight case
# ---------------------------------------------------------------------------

@register_case("synthetic")
def _synthetic_case(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A milliseconds-scale pure-kernel workload for tests and demos.

    Simulates ``tasks`` jobs of deterministic pseudo-random durations on a
    ``workers``-wide pool feeding a shared link of rate ``rate`` — enough
    structure (timeouts, handoffs, fair sharing) to exercise the scheduler
    while staying independent of the heavyweight workload stack.
    """
    from repro.sim import Environment, SharedBandwidth, WorkerPool
    from repro.sim.rng import make_rng

    workers = int(params.get("workers", 2))
    tasks = int(params.get("tasks", 10))
    rate = float(params.get("rate", 100.0))
    env = Environment()
    pool = WorkerPool(env, workers=workers)
    link = SharedBandwidth(env, rate=rate)
    rng = make_rng(seed, "synthetic")
    sizes = rng.uniform(1.0, 50.0, size=tasks)

    def make_task(amount):
        def task():
            yield env.timeout(float(amount) / 1000.0)
            yield link.transfer(float(amount))
            return float(amount)
        return task

    jobs = [pool.submit(make_task(amount)) for amount in sizes]
    env.run(until=env.all_of(jobs))
    pool.close()
    env.run()
    return {
        "makespan": env.now,
        "transferred": link.total_transferred,
        "completed": pool.completed_jobs,
        "mean_task": float(sizes.mean()),
    }
