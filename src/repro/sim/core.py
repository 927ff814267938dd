"""Discrete-event simulation kernel.

A minimal, deterministic discrete-event simulator with one scheduling
primitive: a timed behaviour is a ``callback(value)`` agenda entry
(:meth:`Environment.call_later`), and a behaviour that spans several
instants is a state machine whose callbacks schedule the next step.
User-visible :class:`Event` objects (a gradient's ready signal, a task
graph's ``done``) fire once, through one such entry, and run the
callbacks attached to them.

Determinism matters for a systems simulator: two events scheduled for the
same instant are ordered by (priority, insertion sequence), so repeated runs
of the same workload produce identical traces.

The agenda is a slotted calendar queue of two-slot ``[callback, value]``
entries (see ``docs/SIM_CORE.md``); the total order is pinned against a
sorted-list model in ``tests/test_queue_properties.py``.
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


class SimulationError(Exception):
    """Raised for structural misuse of the simulation kernel."""


class Event:
    """An occurrence at a point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them on
    the environment's agenda.  Once processed, their callbacks run.  A
    failed event that nothing observes raises out of
    :meth:`Environment.step`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    #: Sentinel meaning "no value yet".
    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False

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
            "triggered" if self._scheduled else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def _process(event: Event) -> None:
    """The agenda callback of a fired :class:`Event`: run its callbacks,
    and raise its exception if it failed with none attached."""
    callbacks, event.callbacks = event.callbacks, None
    event._processed = True
    for callback in callbacks:
        callback(event)
    if not event._ok and not callbacks:
        raise event._value


class Environment:
    """Executes agenda entries in simulated-time order.

    An entry is a two-slot list ``[callback, value]``; stepping it calls
    ``callback(value)``.  Usage::

        env = Environment()
        seen = []
        env.call_later(5, lambda value: seen.append((env.now, value)), "x")
        env.run()
        assert env.now == 5 and seen == [(5, "x")]
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue = SlottedQueue()
        #: Entries removed from the agenda via :meth:`cancel`.
        self.cancellations = 0
        #: Optional :class:`~repro.telemetry.TelemetryCollector`.  None (the
        #: default) keeps every instrumentation site on the zero-cost path:
        #: one ``is not None`` test, no recording, no extra sim events.
        self.telemetry = None

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL) -> None:
        """Push ``event``'s firing onto the agenda at ``(now, priority)``."""
        event._scheduled = True
        self._queue.push(self._now, priority, [_process, event])

    def call_later(self, delay: float, callback: Callable[[Any], None],
                   value: Any = None, priority: int = NORMAL) -> List[Any]:
        """Run ``callback(value)`` ``delay`` from now, at ``priority``.

        The entry is ordered as ``schedule`` orders an event pushed now,
        and returned as the handle for :meth:`cancel`.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay}")
        entry = [callback, value]
        self._queue.push(self._now + delay, priority, entry)
        return entry

    def cancel(self, entry: List[Any]) -> None:
        """Remove a pending :meth:`call_later` entry from the agenda.

        The entry never fires: its callback does not run and it does not
        advance the clock.  Cancelling an entry that already fired or was
        cancelled is a no-op.  Physical removal is lazy -- the queue skips
        tombstones (``entry[0] is None``) at pop time and compacts once
        they outnumber live entries -- so heavy cancel churn (retry
        timers, straggler timeouts) cannot grow the agenda without bound.
        """
        if entry[0] is None:
            return
        entry[0] = None
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
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._queue.peek_time()

    def step(self) -> None:
        """Process the single next entry."""
        try:
            self._now, entry = self._queue.pop()
        except IndexError:  # no live entry left
            raise SimulationError("no more events") from None
        callback = entry[0]
        entry[0] = None  # fired: a later cancel is a no-op
        callback(entry[1])

    # The run loops test the queue's live count directly: ``len()`` would
    # cost a Python call per entry.

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda is empty or simulated time reaches ``until``."""
        queue = self._queue
        if until is None:
            while queue._live:
                self.step()
            return
        if not until >= self._now:  # also rejects NaN
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while queue._live and queue.peek_time() <= until:
            self.step()
        self._now = until

    def run_until_complete(self, event: Event) -> Any:
        """Step until ``event`` is processed; return its value or raise its
        exception."""
        queue = self._queue
        while not event._processed:
            if not queue._live:
                raise SimulationError(
                    f"deadlock: {event!r} is pending but no events remain")
            self.step()
        if event._ok:
            return event._value
        raise event._value

    def discard(self) -> None:
        """Drop every pending entry, unfired.

        An entry's callback usually refers back to this environment, so
        the entries a run stops with pending (an aborted round's timers)
        keep a reference cycle that only a full collection frees.  A
        settled round discards them: they would never fire, and the
        round's state then frees by reference counting.  Each is
        tombstoned, so cancelling one later is a no-op.  The environment
        stays usable, with an empty agenda.
        """
        self._queue.clear()

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)
