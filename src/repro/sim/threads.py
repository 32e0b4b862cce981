"""Simulated worker thread pools.

The tf.data runtime executes the user's map function on a private thread
pool whose size is ``num_parallel_calls``.  :class:`WorkerPool` reproduces
that structure inside the simulation: a task is a generator factory, each
worker takes the oldest queued task and runs it to completion, and the
pool can be drained and shut down.  ``submit`` hands back the one event
that fires with the task's value; the pool keeps no record of past tasks
beyond a count.  CPU contention between workers is modelled separately by
:class:`repro.sim.bandwidth.CPUPool`, which the tasks themselves use.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.sim.environment import Environment
from repro.sim.errors import Interrupt
from repro.sim.events import Event
from repro.sim.resources import Store

#: Sentinel task used to ask a worker to exit.
_SHUTDOWN = object()


class WorkerPool:
    """A fixed-size pool of simulated worker threads.

    Parameters
    ----------
    env:
        Simulation environment.
    workers:
        Number of worker threads.
    name:
        Label used in error messages.
    """

    def __init__(self, env: Environment, workers: int, name: str = "pool"):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.env = env
        self.workers = int(workers)
        self.name = name
        self._queue: Store = Store(env)
        self._worker_procs = [
            env.process(self._worker_loop()) for _ in range(self.workers)
        ]
        self._closed = False
        self.completed_jobs: int = 0

    # -- public API ------------------------------------------------------
    def submit(self, factory: Callable[[], Generator]) -> Event:
        """Submit a task; returns the event that fires with its return value
        (or fails with its exception)."""
        if self._closed:
            raise RuntimeError(f"WorkerPool {self.name!r} is closed")
        done = Event(self.env)
        self._queue.put((factory, done))
        return done

    def close(self) -> Event:
        """Stop accepting work and shut workers down after the queue drains.

        Returns an event that fires when every worker has exited.
        """
        if not self._closed:
            self._closed = True
            for _ in range(self.workers):
                self._queue.put(_SHUTDOWN)
        return self.env.all_of(self._worker_procs)

    def interrupt_workers(self, cause: object = "pool-cancelled") -> None:
        """Interrupt every live worker (used when a pipeline is cancelled)."""
        self._closed = True
        for proc in self._worker_procs:
            if proc.is_alive:
                proc.interrupt(cause)

    # -- worker loop -------------------------------------------------------
    def _worker_loop(self) -> Generator:
        while True:
            try:
                task = yield self._queue.get()
            except Interrupt:
                return
            if task is _SHUTDOWN:
                return
            factory, done = task
            try:
                result = yield self.env.process(factory())
            except Interrupt:
                # The pool is being torn down; the in-flight task keeps
                # running on its own but this worker exits.
                return
            except Exception as exc:  # propagate failures to the waiter
                done.fail(exc)
                continue
            self.completed_jobs += 1
            done.succeed(result)
