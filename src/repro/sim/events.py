"""Core event types of the discrete-event simulation kernel.

The kernel follows the classic process-interaction style popularised by
SimPy: simulation *processes* are Python generators that ``yield`` events;
the :class:`~repro.sim.environment.Environment` resumes a process when the
event it is waiting on fires.  Only the features needed by the tf-Darshan
reproduction are implemented, but they are implemented completely: event
success/failure, timeouts, process completion values, interrupts, and
``AllOf`` / ``AnyOf`` condition events.

This is the *optimized* kernel (the seed implementation is preserved in
:mod:`repro.sim.seedref`).  Every simulated byte of every campaign job
flows through these classes, so they are written for the interpreter
rather than for elegance:

* every event class declares ``__slots__`` — no per-instance ``__dict__``;
* hot event types assign all slots inline instead of chaining
  ``__init__`` calls and go straight onto the environment's queues: the
  internal process initializer in its constructor, and :class:`Timeout`
  in :meth:`Environment.timeout
  <repro.sim.environment.Environment.timeout>`, its only constructor;
* events that fire *now* at NORMAL priority are appended to a FIFO deque
  (O(1)) and strictly-future timeouts land in a calendar-queue timer wheel
  (:mod:`repro.sim.timerwheel`, O(1) slot append) instead of the binary
  heap (O(log n)) — see :class:`~repro.sim.environment.Environment` for
  the three-way merge rule that keeps the combined order identical to the
  seed scheduler;
* :class:`Process` caches the generator's bound ``send``/``throw`` and
  fast-paths the overwhelmingly common case of a process yielding one
  pending event.

Scheduling order is encoded in a single integer sort key,
``priority << 52 | sequence``: the sequence number increases monotonically
per environment, so among events scheduled for the same simulated time
URGENT events fire before NORMAL events and ties within a priority are
FIFO — exactly the ``(time, priority, eid)`` order of the seed kernel.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.errors import Interrupt, SimulationError

#: Sentinel used for the value of an event that has not been triggered yet.
PENDING = object()

#: Priority of internally generated "initialize process" events.
URGENT = 0
#: Priority of normal events.
NORMAL = 1

#: Offset folding the priority into the integer sort key.  Sequence numbers
#: stay far below 2**52 (at ~10^6 events/s that is >100 years of simulated
#: churn), so ``URGENT`` keys always sort before ``NORMAL`` keys.
PRIORITY_STRIDE = 1 << 52


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *pending*; it becomes *triggered* when it has been
    scheduled with a value (or an exception), and *processed* once its
    callbacks have run.  Processes wait for events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_key")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set by the environment when a failed event's exception was
        #: delivered to at least one waiter (so ``run`` does not re-raise).
        self.defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the callbacks of the event have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        For failed events this is the exception instance.
        """
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        self._key = PRIORITY_STRIDE + eid
        env._imm.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        self._key = PRIORITY_STRIDE + eid
        env._imm.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (used by conditions)."""
        if self._value is not PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._eid = eid = env._eid + 1
        self._key = PRIORITY_STRIDE + eid
        env._imm.append(self)

    # -- chaining ------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time.

    Create it with :meth:`Environment.timeout
    <repro.sim.environment.Environment.timeout>`, which fills every slot.
    """

    __slots__ = ("delay",)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env, process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self.defused = False
        # URGENT events always go through the heap: the immediate deque is
        # reserved for NORMAL-priority events so it stays FIFO-sorted.
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, eid, self))


class Process(Event):
    """A simulation process wrapping a Python generator.

    The process itself is an event that fires when the generator terminates;
    its value is the generator's return value.  Processes can be interrupted
    with :meth:`interrupt`, which raises :class:`~repro.sim.errors.Interrupt`
    inside the generator.
    """

    __slots__ = ("_generator", "_target", "_send", "_throw", "_resume_cb")

    def __init__(self, env, generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError("Process() requires a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The bound ``_resume`` callback, created once: appending
        #: ``self._resume`` would allocate a fresh bound method per yield,
        #: which is measurable on the million-event hot path.
        self._resume_cb = self._resume
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (``None`` if done)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process by raising :class:`Interrupt` inside it."""
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        # Jump the queue: deliver before any other pending callback resumes
        # the process, and detach from the original target.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        event.callbacks = [self._resume_cb]
        self.env.schedule(event, priority=URGENT)

    # -- generator stepping ---------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The exception was delivered; mark it as handled.
                    event.defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                # A finished process drops its bound callback, which refers
                # back to it: without the cycle it is freed by refcount.
                self._target = self._resume_cb = None
                env._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = self._resume_cb = None
                env._active_process = None
                self.fail(exc)
                return

            # The fast path assumes an Event was yielded and reads its
            # callback list directly; anything else (int, None, a plain
            # generator...) lacks the slot and fails the process exactly
            # like the seed kernel's isinstance() check did.
            try:
                cbs = next_event.callbacks
            except AttributeError:
                self._target = self._resume_cb = None
                env._active_process = None
                self.fail(SimulationError(
                    f"process yielded a non-event: {next_event!r}"))
                return

            if cbs is not None:
                # Event not yet processed: wait for it.
                cbs.append(self._resume_cb)
                self._target = next_event
                break
            # Event already processed: feed its value back in immediately.
            event = next_event

        env._active_process = None


class Condition(Event):
    """Base class for events composed of several sub-events."""

    __slots__ = ("events", "_completed", "_fired")

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._completed = 0
        #: Sub-events that fired, as a set: ``_collect_values`` probes
        #: membership once per sub-event, which would be quadratic for
        #: wide ``AllOf`` grids with a list (events hash by identity).
        self._fired = set()
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _evaluate(self) -> bool:
        raise NotImplementedError

    def _collect_values(self) -> dict:
        return {
            event: event._value
            for event in self.events
            if event in self._fired and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            # A sub-event failing *after* the condition fired (e.g. the
            # second failure reaching an AnyOf) was still consumed by this
            # condition: defuse it so Environment.run does not re-raise an
            # exception the condition's waiter already handled.
            if event._ok is False:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._fired.add(event)
        self._completed += 1
        if self._evaluate():
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Condition that fires once *all* sub-events have fired."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._completed >= len(self.events)


class AnyOf(Condition):
    """Condition that fires once *any* sub-event has fired."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._completed >= 1
