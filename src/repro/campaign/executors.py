"""Pluggable job executors.

An executor is anything with ``map(fn, items) -> list`` that preserves item
order.  Two in-process implementations ship here — serial and a
``multiprocessing`` fan-out — and the distributed worker fleet
(:class:`~repro.campaign.dist.executor.DistributedExecutor`) plugs into
the same seam.

Determinism contract: executors may run jobs in any order or on any worker,
but the *returned list* lines up with the input list, and job seeds are
bound into the :class:`~repro.campaign.spec.JobSpec` before submission —
so a campaign's aggregate results are independent of the executor used.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence


class SerialExecutor:
    """Run every job in the calling process, one after another."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item in order; the reference executor."""
        return [fn(item) for item in items]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class MultiprocessingExecutor:
    """Fan jobs out over a pool of worker processes.

    Each worker imports the case registry lazily on first use; jobs and
    results cross the process boundary as picklable dataclasses.  The
    default worker count leaves one core for the orchestrating process.
    """

    name = "multiprocessing"

    def __init__(self, processes: Optional[int] = None,
                 start_method: Optional[str] = None,
                 chunksize: int = 1):
        if processes is None:
            processes = max(1, (os.cpu_count() or 2) - 1)
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.start_method = start_method
        self.chunksize = max(1, int(chunksize))

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Fan ``fn`` over a process pool; results stay in input order."""
        items = list(items)
        if not items:
            return []
        if len(items) == 1 or self.processes == 1:
            # No point paying process startup for a single job.
            return [fn(item) for item in items]
        context = (multiprocessing.get_context(self.start_method)
                   if self.start_method else multiprocessing.get_context())
        workers = min(self.processes, len(items))
        with context.Pool(processes=workers) as pool:
            return pool.map(fn, items, chunksize=self.chunksize)

    def __repr__(self) -> str:
        return (f"MultiprocessingExecutor(processes={self.processes}, "
                f"start_method={self.start_method!r})")
