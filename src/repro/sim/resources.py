"""Shared-resource primitives for the simulation kernel.

Two resource flavours cover everything this repository needs:

* :class:`Resource` -- a counted semaphore (GPU streams, link directions,
  PCIe lanes).  Processes ``yield resource.request()`` and must call
  ``resource.release(req)`` when done (or use :meth:`Resource.acquire` as a
  context-manager-like pair).
* :class:`Store` -- an unbounded FIFO of Python objects (task queues,
  mailboxes).  ``yield store.get()`` blocks until an item is available.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Environment, Event, SimulationError, URGENT

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` concurrent holders are allowed; further requests queue in
    arrival order, which keeps simulations deterministic.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of holders right now."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        tel = self.env.telemetry
        if tel is not None:
            tel.metrics.counter("sim.resource.requests").inc()
            if self._in_use >= self.capacity:
                tel.metrics.counter("sim.resource.queued").inc()
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(priority=URGENT)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("release() with a foreign request")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed(priority=URGENT)
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise SimulationError("release() without a matching request")

    def cancel(self, request: Request) -> None:
        """Withdraw a claim, e.g. when the requester is interrupted.

        A still-queued request is removed (and defused: its grant will
        never be consumed); a granted one is released.  Safe to call
        exactly once per request in an interrupt handler.
        """
        if request.resource is not self:
            raise SimulationError("cancel() with a foreign request")
        if request.triggered:
            self.release(request)
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
            request.defuse()

    def acquire(self):
        """Generator helper: ``req = yield from resource.acquire()``."""
        req = self.request()
        yield req
        return req


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  Pending getters are served in FIFO order.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        ev = StoreGet(self.env)
        if self._items:
            ev.succeed(self._items.popleft(), priority=URGENT)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None
