"""Discrete-event simulation kernel used by every substrate in ``repro``.

The kernel provides the virtual clock and its one dispatch loop
(:meth:`Environment.run`), process-style concurrency (generators yielding
events), slot-counted resources, bounded stores, an equal-share fluid
bandwidth resource and simulated worker pools.  It is a small,
dependency-free re-implementation of the classic process-interaction model
(the subset of SimPy semantics the reproduction needs); the seed scheduler
stays frozen in :mod:`repro.sim.seedref` as the differential-test reference.
"""

from repro.sim.bandwidth import CPUPool, SharedBandwidth, TransferRecord
from repro.sim.environment import Environment
from repro.sim.errors import EmptySchedule, Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout
from repro.sim.resources import Request, Resource, Store
from repro.sim.rng import DEFAULT_SEED, derive_seed, make_rng
from repro.sim.threads import Job, WorkerPool
from repro.sim.timerwheel import TimerWheel

__all__ = [
    "AllOf",
    "AnyOf",
    "CPUPool",
    "DEFAULT_SEED",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Job",
    "Process",
    "Request",
    "Resource",
    "SharedBandwidth",
    "SimulationError",
    "Store",
    "Timeout",
    "TimerWheel",
    "TransferRecord",
    "WorkerPool",
    "derive_seed",
    "make_rng",
]
