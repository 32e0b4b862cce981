"""Fluid fair-sharing bandwidth resource.

Storage devices and CPU pools are modelled as *fluid* resources: every
active flow receives an equal share of the aggregate rate, optionally capped
per flow (one Lustre OST stream, one CPU core).  A device whose throughput
drops under concurrency is not modelled here: an HDD serializes its requests
on :class:`~repro.storage.device.RotationalDevice`'s capacity-one head
:class:`~repro.sim.resources.Resource` and pays a seek between streams.
Whenever the set of active flows changes, the remaining work of every flow
is re-evaluated and the next completion is rescheduled.  The model is the
standard progress-based flow model used by network/storage simulators and
gives deterministic, closed-form sharing without simulating individual
requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.environment import Environment
from repro.sim.events import Event

#: Relative tolerance used to decide that a flow has completed.
_EPS = 1e-9


@dataclass
class TransferRecord:
    """Completed transfer returned as the value of a transfer event."""

    amount: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Elapsed time of the transfer in simulated seconds."""
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Average achieved rate (amount / duration); ``inf`` for instant."""
        if self.duration <= 0:
            return math.inf
        return self.amount / self.duration


@dataclass
class _Flow:
    event: Event
    remaining: float
    amount: float
    start: float


class SharedBandwidth:
    """A rate-limited resource shared fairly among concurrent flows.

    Parameters
    ----------
    env:
        The simulation environment.
    rate:
        Aggregate rate in units/second (bytes/s for devices, core-seconds/s
        for CPU pools).
    per_flow_rate:
        Optional cap on the rate a single flow may receive (e.g. the
        single-stream bandwidth of one Lustre OST, or 1.0 core for a CPU).
    name:
        Label used in repr/debugging output.
    """

    def __init__(
        self,
        env: Environment,
        rate: float,
        per_flow_rate: Optional[float] = None,
        name: str = "",
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if per_flow_rate is not None and per_flow_rate <= 0:
            raise ValueError("per_flow_rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.per_flow_rate = per_flow_rate
        self.name = name
        self._flows: List[_Flow] = []
        #: The rate every active flow receives, set whenever the flow set
        #: changes (equal shares, so one float serves every flow).
        self._flow_rate = 0.0
        self._last_update = env.now
        #: The latest wake; an earlier one still pending is stale.
        self._wake: Optional[Event] = None
        #: total units completed through this resource (monotonic)
        self.total_transferred = 0.0

    # -- public API ------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of flows currently in progress."""
        return len(self._flows)

    def transfer(self, amount: float) -> Event:
        """Start a transfer of ``amount`` units.

        Returns an event whose value is a :class:`TransferRecord` once the
        transfer completes.  A zero/negative ``amount`` completes
        immediately; a non-finite one raises :class:`ValueError`.
        """
        if not math.isfinite(amount):
            raise ValueError(f"transfer amount must be finite, got {amount!r}")
        event = Event(self.env)
        if amount <= 0:
            event.succeed(TransferRecord(0.0, self.env.now, self.env.now))
            return event
        self._advance()
        self._flows.append(_Flow(event, float(amount), float(amount),
                                 self.env.now))
        self._reschedule()
        return event

    # -- internal bookkeeping ---------------------------------------------
    def _time_quantum(self) -> float:
        """Smallest meaningful time step at the current simulation time.

        Completion checks and wake-ups are quantised to this value so that
        floating-point residue (a few ulps of ``now`` times a very high
        rate) can never leave a flow with an un-transferable remainder that
        would stall progress.
        """
        return max(1e-12, abs(self.env.now) * 1e-12)

    def _advance(self) -> None:
        """Account for progress made since the last update."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        done = self._flow_rate * elapsed
        for flow in self._flows:
            flow.remaining = max(0.0, flow.remaining - done)

    def _complete_finished(self) -> None:
        # A flow counts as finished when its remainder could be moved within
        # one time quantum at the aggregate rate or is a pure floating-point
        # residue of its own size.  A flow capped below the aggregate rate
        # needs up to rate / per_flow_rate quanta for that remainder, so it
        # may end that much early.
        threshold = self.rate * self._time_quantum()
        finished = []
        active = []
        for f in self._flows:
            if f.remaining <= max(threshold, _EPS * max(1.0, f.amount)):
                finished.append(f)
            else:
                active.append(f)
        if not finished:
            return
        self._flows = active
        now = self.env.now
        for flow in finished:
            self.total_transferred += flow.amount
            flow.event.succeed(TransferRecord(flow.amount, flow.start, now))

    def _reschedule(self) -> None:
        flows = self._flows
        if not flows:
            return
        rate = self.rate * (1.0 / len(flows))
        cap = self.per_flow_rate
        if cap is not None and cap < rate:
            rate = cap
        self._flow_rate = rate
        # Division by one positive rate is monotonic, so this is the
        # smallest per-flow time to completion.
        time_to_next = min(flow.remaining for flow in flows) / rate
        self._wake = wake = self.env.timeout(
            max(time_to_next, self._time_quantum()))
        wake.callbacks.append(self._on_wake)

    def _on_wake(self, wake: Event) -> None:
        if wake is not self._wake:
            return  # superseded by a newer flow-set change
        self._advance()
        self._complete_finished()
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SharedBandwidth {self.name or id(self):#x} rate={self.rate} "
                f"flows={len(self._flows)}>")


class CPUPool(SharedBandwidth):
    """A pool of CPU cores modelled as a shared-rate resource.

    A "transfer" of ``w`` units corresponds to ``w`` seconds of
    single-threaded CPU work; with ``cores`` cores, up to ``cores`` such
    tasks can proceed at full speed concurrently, and more than that degrade
    gracefully by sharing.
    """

    def __init__(self, env: Environment, cores: int, name: str = "cpu"):
        if cores <= 0:
            raise ValueError("cores must be positive")
        super().__init__(env, rate=float(cores), per_flow_rate=1.0, name=name)

    def compute(self, seconds: float) -> Event:
        """Perform ``seconds`` of single-threaded CPU work."""
        return self.transfer(seconds)
