"""Declarative sweep specifications and their expansion into jobs.

A :class:`SweepSpec` describes a whole experiment grid — one *case study*
(a registered workload runner), a set of fixed base parameters, and a
parameter grid — the way the paper's evaluation is a grid of training runs
over platforms × thread counts × container formats × staging thresholds.
:meth:`SweepSpec.expand` turns the spec into concrete :class:`JobSpec`
objects with deterministic identities and per-job seeds:

* expansion order is the cartesian product over *sorted* grid keys, so the
  same spec always yields the same job list;
* every job's ``fingerprint`` hashes the case name and its canonical
  parameters — not its position — so reordering grid values neither
  changes job identities nor invalidates cached results;
* per-job seeds are derived from the sweep seed and the fingerprint, which
  makes aggregate results identical under serial and parallel executors
  (seeding cannot depend on execution order).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Iterator, List, Mapping, Sequence

from repro.sim.rng import DEFAULT_SEED, derive_seed

#: Parameter values must be JSON scalars so specs hash canonically and job
#: records serialize losslessly to the on-disk cache.
_SCALARS = (str, int, float, bool, type(None))


class SpecError(ValueError):
    """Raised for malformed sweep specifications."""


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` to the canonical JSON used for fingerprints."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _check_scalar(name: str, value: Any) -> None:
    if not isinstance(value, _SCALARS):
        raise SpecError(
            f"parameter {name!r} must be a JSON scalar "
            f"(str/int/float/bool/None), got {type(value).__name__}")
    if isinstance(value, bool):
        return
    if isinstance(value, float) and (value != value or value in (float("inf"),
                                                                 float("-inf"))):
        raise SpecError(f"parameter {name!r} must be finite, got {value!r}")


def job_fingerprint(case: str, params: Mapping[str, Any], repeat: int = 0) -> str:
    """Content hash of what a job *computes* (not where it sits in a grid)."""
    payload = canonical_json({
        "case": case,
        "params": dict(params),
        "repeat": repeat,
    })
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


#: The shape of :attr:`JobSpec.job_id`: ``<case>-<index digits>-<8 hex>``.
_JOB_KEY = re.compile(r".+-[0-9]+-[0-9a-f]{8}")


def is_job_key(stem: str) -> bool:
    """True when ``stem`` is shaped like a :attr:`JobSpec.job_id`, so the
    queue can tell its own documents from foreign ones in a shared store."""
    return _JOB_KEY.fullmatch(stem) is not None


@dataclass(frozen=True)
class JobSpec:
    """One concrete experiment: a case study with fully bound parameters."""

    campaign: str
    case: str
    index: int
    params: Mapping[str, Any]
    seed: int
    repeat: int = 0

    @property
    def fingerprint(self) -> str:
        """Content hash of what the job computes (case, params, repeat)."""
        return job_fingerprint(self.case, self.params, self.repeat)

    @property
    def job_id(self) -> str:
        """Stable identity: human-scannable prefix + content fingerprint
        (the shape :func:`is_job_key` recognizes)."""
        return f"{self.case}-{self.index:04d}-{self.fingerprint[:8]}"

    def to_record(self) -> Dict[str, Any]:
        """A picklable/JSON-able representation (used by executors/cache)."""
        return {
            "campaign": self.campaign,
            "case": self.case,
            "index": self.index,
            "params": dict(self.params),
            "seed": self.seed,
            "repeat": self.repeat,
        }

    @staticmethod
    def from_record(record: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_record` output; raises
        ``KeyError``/``TypeError`` on a foreign or truncated record."""
        return JobSpec(campaign=record["campaign"], case=record["case"],
                       index=record["index"], params=dict(record["params"]),
                       seed=record["seed"], repeat=record.get("repeat", 0))


@dataclass
class SweepSpec:
    """A declarative description of an experiment campaign.

    ``base`` holds parameters shared by every job; ``grid`` maps parameter
    names to the values to sweep.  ``repeats`` replicates the whole grid
    with distinct per-repeat seeds (for variance estimates).

    ``seed_mode`` selects the seeding protocol:

    * ``"derived"`` (default) — every job's seed is derived from the sweep
      seed and the job's content fingerprint, giving independent random
      streams across the grid (right for coverage/variance sweeps);
    * ``"shared"`` — every job of a repeat runs with the *same* seed, so
      grid points differ only in the swept parameters.  This is the
      paper's fixed-workload measurement protocol: differential
      comparisons (profiler overhead, threading speedup, staging gain)
      must not mix dataset variance into the deltas.
    """

    name: str
    case: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    repeats: int = 1
    seed_mode: str = "derived"

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("sweep name must be non-empty")
        if not self.case:
            raise SpecError("sweep case must be non-empty")
        if self.seed_mode not in ("derived", "shared"):
            raise SpecError(
                f"seed_mode must be 'derived' or 'shared', got {self.seed_mode!r}")
        if self.repeats < 1:
            raise SpecError(f"repeats must be >= 1, got {self.repeats}")
        overlap = set(self.base) & set(self.grid)
        if overlap:
            raise SpecError(
                f"parameters {sorted(overlap)} appear in both base and grid")
        for name, value in self.base.items():
            _check_scalar(name, value)
        for name, values in self.grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                    values, (list, tuple, range)):
                raise SpecError(
                    f"grid axis {name!r} must be a list/tuple/range of values")
            if len(values) == 0:
                raise SpecError(f"grid axis {name!r} is empty")
            for value in values:
                _check_scalar(name, value)

    # -- expansion ---------------------------------------------------------
    def axes(self) -> List[str]:
        """Grid axes in deterministic (sorted) order."""
        return sorted(self.grid)

    def combinations(self) -> Iterator[Dict[str, Any]]:
        """All grid points, base merged in, in deterministic order."""
        axes = self.axes()
        if not axes:
            yield dict(self.base)
            return
        for combo in product(*(self.grid[axis] for axis in axes)):
            params = dict(self.base)
            params.update(zip(axes, combo))
            yield params

    def expand(self) -> List[JobSpec]:
        """Expand the grid into concrete jobs with bound per-job seeds."""
        jobs: List[JobSpec] = []
        index = 0
        for repeat in range(self.repeats):
            for params in self.combinations():
                if self.seed_mode == "shared":
                    # Same physics for every grid point of a repeat.
                    seed = (self.seed if self.repeats == 1
                            else derive_seed(self.seed, "repeat", repeat))
                else:
                    # Seed from content, not position: reordering the grid
                    # must not change any job's physics.
                    seed = derive_seed(
                        self.seed, self.case,
                        job_fingerprint(self.case, params, repeat))
                jobs.append(JobSpec(campaign=self.name, case=self.case,
                                    index=index, params=params, seed=seed,
                                    repeat=repeat))
                index += 1
        return jobs

    @property
    def job_count(self) -> int:
        """Grid size × repeats, without expanding the jobs."""
        count = self.repeats
        for values in self.grid.values():
            count *= len(values)
        return count

    def fingerprint(self) -> str:
        """Content hash of the entire sweep (used to name result sets)."""
        payload = canonical_json({
            "case": self.case,
            "base": self.base,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "seed": self.seed,
            "repeats": self.repeats,
            "seed_mode": self.seed_mode,
        })
        return hashlib.sha256(payload.encode()).hexdigest()[:20]
