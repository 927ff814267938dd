"""Shared-resource primitive for the simulation kernel.

:class:`Resource` is a counted semaphore with FIFO granting (a GPU's
compute stream).  Processes ``yield resource.request()`` and must call
``resource.release(req)`` when done (or use :meth:`Resource.acquire` as a
context-manager-like pair).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .core import Environment, Event, SimulationError, URGENT

__all__ = ["Resource", "Request"]


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
