"""The simulation :class:`Environment`: event queues and virtual clock.

The seed kernel kept a single binary heap of ``(time, priority, eid,
event)`` tuples.  The optimized environment splits scheduling three ways:

* ``_imm`` — a FIFO deque of NORMAL-priority events scheduled for the
  *current* timestamp.  Triggering an event (``succeed`` / ``fail`` /
  ``trigger``) and zero-delay timeouts are the hottest operations in the
  resource, store and bandwidth layers, and a deque append/popleft is O(1)
  with no tuple comparisons.
* ``_wheel`` — a :class:`~repro.sim.timerwheel.TimerWheel` (calendar
  queue) for *near-future* NORMAL events: fire times are bucketed into
  power-of-two ticks (``2**-10`` seconds), an accepted event is an O(1)
  append into its tick's slot, and a slot is sorted once when the clock
  reaches it.  A strictly-future timeout the wheel accepts skips the
  heap's O(log n) sift.
* ``_queue`` — a binary heap of ``(time, key, event)`` for everything
  else: URGENT events, events beyond the wheel horizon, and events
  landing on the tick currently being drained.  ``key`` folds the
  priority and a monotonic sequence number into one integer
  (``priority << 52 | seq``).

The merge rule in :meth:`run` preserves the seed order exactly.  Three
invariants make it cheap:

1. every entry in ``_imm`` was scheduled *at* the current time, and the
   clock only advances when ``_imm`` is empty — so ``_imm`` always holds
   events for ``now`` in FIFO (= ascending key) order;
2. wheel and heap entries are never in the past (``schedule`` rejects
   negative, infinite and NaN delays), so the head of ``_imm`` loses only
   to a scheduled entry at exactly ``now`` with a smaller key (an URGENT
   event such as a process initializer or an interrupt, or a timeout whose
   float fire-time collapsed onto ``now``);
3. the wheel serves entries in ``(time, key)`` order and the heap top is
   compared against the wheel head on every pop, so the earlier of the
   two is always the global minimum of the strictly-future schedule.

Hence one float comparison against the wheel head (or heap top) decides
almost every pop, and ``(time, key)`` tie-breaks reproduce the seed
kernel's ``(time, priority, eid)`` order bit for bit — property/differential
tests pin this against the frozen :mod:`repro.sim.seedref`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional, Union

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import (
    NORMAL,
    PRIORITY_STRIDE,
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
)
from repro.sim.timerwheel import TimerWheel

#: Pre-bound allocator for the fused Timeout construction in
#: :meth:`Environment.timeout` (skips one class-attribute lookup per event).
_new_timeout = Timeout.__new__

#: Upper bound (exclusive) of a legal delay: one chained comparison against
#: it rejects negative, infinite and NaN delays alike.
_INF = float("inf")


class Environment:
    """Execution environment of a simulation.

    The environment owns the virtual clock (:attr:`now`, in **seconds**) and
    the event queues.  All simulated components — storage devices, POSIX
    syscalls, the tf.data pipeline, the profiler — share one environment so
    their timestamps are mutually consistent, exactly like wall-clock
    timestamps shared between Darshan and the TensorFlow runtime in the
    paper.

    The timer wheel takes :class:`~repro.sim.timerwheel.TimerWheel`'s
    default geometry: a ~0.98 ms tick and a 1 s horizon, beyond which
    events spill to the heap.
    """

    __slots__ = ("_now", "_queue", "_imm", "_wheel", "_eid", "_active_process")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        self._imm: deque = deque()
        self._wheel = TimerWheel(self._now)
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between steps)."""
        return self._active_process

    # -- event creation ----------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        This is the hottest constructor in the kernel — every simulated
        latency of every campaign job passes through here — so it is the
        only one: it allocates the :class:`~repro.sim.events.Timeout` via
        ``__new__``, assigns every slot inline and schedules it without a
        second frame.  ``delay`` must be finite and non-negative.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"negative, infinite or NaN delay {delay!r}")
        event = _new_timeout(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event.defused = False
        event.delay = delay
        self._eid = eid = self._eid + 1
        if delay == 0.0:
            event._key = PRIORITY_STRIDE + eid
            self._imm.append(event)
        else:
            t = self._now + delay
            key = PRIORITY_STRIDE + eid
            # Inlined TimerWheel.push fast path: in-horizon ticks append
            # straight into their slot; everything else goes through the
            # canonical push() for the idle-resync, then the heap.
            wheel = self._wheel
            tn = int(t * wheel.tick_inv)
            d = tn - wheel.cur_tick
            if 0 < d < wheel.nslots:
                wheel.slots[tn & wheel.mask].append((t, key, event))
                wheel.count += 1
            elif not wheel.push(t, key, event, self._now):
                heappush(self._queue, (t, key, event))
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay`` seconds.

        ``delay`` must be a finite, non-negative number: a negative delay
        would plant an entry in the *past*, silently violating the merge
        invariant that ``_imm`` always beats the schedule at strictly
        earlier times; NaN, which compares false against everything, would
        corrupt the heap ordering outright; and infinity has no wheel tick.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(
                f"delay must be finite and non-negative (got {delay!r})")
        self._eid = eid = self._eid + 1
        key = priority * PRIORITY_STRIDE + eid
        if delay == 0.0 and priority == NORMAL:
            event._key = key
            self._imm.append(event)
        else:
            t = self._now + delay
            if not self._wheel.push(t, key, event, self._now):
                heappush(self._queue, (t, key, event))

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the event queue drains), a
        number (run until that simulated time), or an :class:`Event` (run
        until the event fires, returning its value).  If the target event
        *failed* — whether it is processed already or fires during this
        run — its exception is raised, exactly like the :meth:`_stop_on`
        path.
        """
        target_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                target_event = until
                if target_event.callbacks is None:
                    # Already processed: mirror _stop_on for both outcomes.
                    if target_event._ok:
                        return target_event._value
                    target_event.defused = True
                    raise target_event._value
                target_event.callbacks.append(self._stop_on)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before the current time ({self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop.callbacks.append(self._stop_on)
                self.schedule(stop, delay=at - self._now)

        # The one dispatch loop, with the queue bookkeeping in local
        # variables: it dispatches every event of every simulation, so each
        # saved attribute lookup is worth its weight.  ``cur``/``ci`` shadow
        # the wheel's sorted slot buffer; only this loop consumes it, and
        # push() never touches it, so the locals stay valid across
        # callbacks.  They are written back in the ``finally`` so the next
        # run() and push()'s idle resync see the cursor after an exception
        # or a StopSimulation unwind.
        queue = self._queue
        imm = self._imm
        pop_imm = imm.popleft
        wheel = self._wheel
        cur = wheel.cur
        ci = wheel.ci
        ncur = len(cur)  # cur never grows while draining: push() refuses its tick
        now = self._now
        try:
            while True:
                # Head of the strictly-future schedule (wheel ∪ heap).
                if ci < ncur:
                    entry = cur[ci]
                    if queue and queue[0] < entry:
                        entry = None
                elif wheel.count:
                    entry = wheel._advance()
                    cur = wheel.cur
                    ci = 0
                    ncur = len(cur)
                    if queue and queue[0] < entry:
                        entry = None
                else:
                    if ncur:
                        # Exhausted buffer: normalize so push() can resync.
                        wheel.cur = cur = []
                        wheel.ci = ci = ncur = 0
                    entry = None

                if entry is not None:
                    if imm and (entry[0] > now or entry[1] > imm[0]._key):
                        event = pop_imm()
                    else:
                        ci += 1
                        self._now = now = entry[0]
                        event = entry[2]
                elif queue:
                    entry = queue[0]
                    if imm and (entry[0] > now or entry[1] > imm[0]._key):
                        event = pop_imm()
                    else:
                        heappop(queue)
                        self._now = now = entry[0]
                        event = entry[2]
                elif imm:
                    event = pop_imm()
                else:
                    break
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            wheel.cur = cur
            wheel.ci = ci

        if target_event is not None and not target_event.triggered:
            raise SimulationError(
                "the event queue drained before the target event was triggered"
            )
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # Propagate failures of the target event to the caller of run().
        event.defused = True
        raise event._value
