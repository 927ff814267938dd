"""Discrete-event simulation kernel.

A minimal, deterministic discrete-event simulator with one scheduling
primitive: a timed behaviour is a callback on a pooled carrier event
(:meth:`Environment.call_later`), and a behaviour that spans several
instants is a state machine whose callbacks schedule the next step.
User-visible :class:`Event` objects (a gradient's ready signal, a task
graph's ``done``) fire once and run the callbacks attached to them.

Determinism matters for a systems simulator: two events scheduled for the
same instant are ordered by (priority, insertion sequence), so repeated runs
of the same workload produce identical traces.

The agenda is a slotted calendar queue and kernel-internal events are
recycled through a free pool (see ``docs/SIM_CORE.md``); the total order
is pinned against a sorted-list model in ``tests/test_queue_properties.py``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .queues import SlottedQueue

__all__ = [
    "Environment",
    "Event",
    "SimulationError",
    "NORMAL",
    "URGENT",
]

#: Default scheduling priority for events.
NORMAL = 1
#: Priority for bookkeeping events that must run before normal ones at the
#: same timestamp (e.g. a kernel's grant hop, a crash reaching its node).
URGENT = 0

#: Upper bound on recycled carrier events kept per environment.
_POOL_LIMIT = 4096


class SimulationError(Exception):
    """Raised for structural misuse of the simulation kernel."""


class Event:
    """An occurrence at a point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them on
    the environment's agenda.  Once processed, their callbacks run.  A
    failed event that nothing observes raises out of
    :meth:`Environment.step`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed",
                 "_cancelled", "_recyclable")

    #: Sentinel meaning "no value yet".
    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False
        self._cancelled = False
        self._recyclable = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def cancelled(self) -> bool:
        """True if the event was removed from the agenda before firing."""
        return self._cancelled

    def cancel(self) -> "Event":
        """Remove this scheduled event from the agenda (see
        :meth:`Environment.cancel`)."""
        self.env.cancel(self)
        return self

    @property
    def value(self) -> Any:
        if self._value is Event.PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire successfully with ``value``."""
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire with an exception."""
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "cancelled" if self._cancelled else
            "triggered" if self._scheduled else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Environment:
    """Executes events in simulated-time order.

    Usage::

        env = Environment()
        seen = []
        env.call_later(5, lambda carrier: seen.append(carrier.env.now))
        env.run()
        assert env.now == 5 and seen == [5]
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue = SlottedQueue()
        self._pool: List[Event] = []
        #: Events removed from the agenda via :meth:`cancel`.
        self.cancellations = 0
        #: Optional :class:`~repro.telemetry.TelemetryCollector`.  None (the
        #: default) keeps every instrumentation site on the zero-cost path:
        #: one ``is not None`` test, no recording, no extra sim events.
        self.telemetry = None

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        event._scheduled = True
        self._queue.push(self._now + delay, priority, event)

    def call_later(self, delay: float, callback: Callable[[Event], None],
                   value: Any = None, priority: int = NORMAL) -> Event:
        """Run ``callback(carrier)`` ``delay`` from now, at ``priority``.

        The carrier is a pooled single-shot event with value ``value``,
        ordered as ``schedule`` orders an event pushed now.  It is
        returned for :meth:`cancel`; nothing may hold it once it fired.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay}")
        if self._pool:
            event = self._pool.pop()
        else:
            event = Event(self)
            event._recyclable = True
        event._ok = True
        event._value = value
        event.callbacks.append(callback)
        event._scheduled = True
        self._queue.push(self._now + delay, priority, event)
        return event

    def cancel(self, event: Event) -> None:
        """Remove a scheduled-but-unprocessed event from the agenda.

        The event never fires: its callbacks do not run and it does not
        advance the clock.  Cancelling an unscheduled or already-processed
        event is a no-op.  Physical removal is lazy -- the queue skips
        tombstones at pop time and compacts once they outnumber live
        events -- so heavy cancel churn (retry timers, straggler
        timeouts) cannot grow the agenda without bound.
        """
        if not event._scheduled or event._processed or event._cancelled:
            return
        event._cancelled = True
        self.cancellations += 1
        queue = self._queue
        before = queue.compactions
        queue.note_cancel()
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("sim.events_cancelled").inc()
            if queue.compactions != before:
                tel.metrics.counter("sim.queue_compactions").inc()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek_time()

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("no more events")
        self._now, event = self._queue.pop()
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            raise event._value
        if event._recyclable:
            self._release_carrier(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda is empty or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while self._queue:
            if until is not None and self._queue.peek_time() > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until

    def run_until_complete(self, event: Event) -> Any:
        """Step until ``event`` is processed; return its value or raise its
        exception."""
        while not event._processed:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: {event!r} is pending but no events remain")
            self.step()
        if event._ok:
            return event._value
        raise event._value

    def discard(self) -> None:
        """Drop every pending event and pooled carrier, unprocessed.

        Each of them refers back to this environment, so the pool, and
        any events a run stops with pending (an aborted round's timers),
        keep a reference cycle that only a full collection frees.  A settled round discards them: they would
        never fire, and the round's state then frees by reference
        counting.  The environment stays usable, with an empty agenda.
        """
        self._queue = SlottedQueue()
        self._pool = []

    # -- carrier pooling --------------------------------------------------

    def _release_carrier(self, event: Event) -> None:
        if len(self._pool) >= _POOL_LIMIT:
            return
        event.callbacks = []
        event._value = Event.PENDING
        event._ok = None
        event._scheduled = False
        event._processed = False
        event._cancelled = False
        self._pool.append(event)

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)
