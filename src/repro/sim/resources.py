"""Countable resources with waiting queues.

:class:`Resource`
    A resource with a fixed number of slots (e.g. a metadata server that can
    serve a bounded number of RPCs concurrently, a device's request queue,
    a GPU, or a hard disk's single head).

:class:`Store`
    A bounded FIFO buffer of Python objects (the tf.data pipeline's
    prefetch buffer and inter-stage handoff queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.environment import Environment
from repro.sim.errors import SimulationError
from repro.sim.events import Event


class Request(Event):
    """Request for one slot of a :class:`Resource`.

    The event succeeds, with the value None, once the slot has been
    granted.  The request object itself is the token passed back to
    :meth:`Resource.release`.
    """

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        resource._do_request(self)

    # Support "with"-less usage from generators; explicit release required.


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = int(capacity)
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; yield the returned event to wait for it."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a previously granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that does not hold the resource")
        self._grant_next()

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (not yet granted) request."""
        try:
            self.queue.remove(request)
        except ValueError:
            raise SimulationError("request is not queued")

    # -- internals -----------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()


class Store:
    """A FIFO store of Python objects with a bounded capacity.

    Used to model the bounded buffers of the tf.data pipeline: the prefetch
    buffer and the inter-stage handoff queues.  ``put`` blocks (its event
    stays pending) while the store is full; ``get`` blocks while it is empty.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: Deque[tuple] = deque()
        self._get_waiters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it was stored."""
        event = Event(self.env)
        self._put_waiters.append((event, item))
        self._trigger()
        return event

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        event = Event(self.env)
        self._get_waiters.append(event)
        self._trigger()
        return event

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters and len(self.items) < self.capacity:
                event, item = self._put_waiters.popleft()
                self.items.append(item)
                event.succeed(item)
                progress = True
            if self._get_waiters and self.items:
                event = self._get_waiters.popleft()
                item = self.items.pop(0)
                event.succeed(item)
                progress = True
