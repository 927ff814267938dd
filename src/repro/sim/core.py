"""Discrete-event simulation kernel.

A minimal, deterministic discrete-event simulator in the style of SimPy.
A timed behaviour is either a *process* -- a Python generator that
yields :class:`Event` objects and is resumed when they fire -- or, on
the hot paths (transfers, task executors, completions), a callback on a
pooled carrier event (:meth:`Environment.call_later`).

Determinism matters for a systems simulator: two events scheduled for the
same instant are ordered by (priority, insertion sequence), so repeated runs
of the same workload produce identical traces.

The agenda is a slotted calendar queue and kernel-internal events are
recycled through a free pool (see ``docs/SIM_CORE.md``); the total order
is pinned against a sorted-list model in ``tests/test_queue_properties.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from .queues import SlottedQueue

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "NORMAL",
    "URGENT",
]

#: Default scheduling priority for events.
NORMAL = 1
#: Priority for bookkeeping events that must run before normal ones at the
#: same timestamp (e.g. resource releases).
URGENT = 0

#: Upper bound on recycled carrier events kept per environment.
_POOL_LIMIT = 4096


class SimulationError(Exception):
    """Raised for structural misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An occurrence at a point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them on
    the environment's agenda.  Once processed, their callbacks run and
    waiting processes resume.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed",
                 "_defused", "_cancelled", "_recyclable")

    #: Sentinel meaning "no value yet".
    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False
        self._defused = False
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

    @property
    def defused(self) -> bool:
        """True if a failure of this event should not crash the simulation.

        Set when the only waiter was detached (e.g. by an
        :class:`Interrupt`), so the event's exception has no consumer left
        by design rather than by accident.
        """
        return self._defused

    def defuse(self) -> "Event":
        """Mark this event's (potential) failure as deliberately unobserved."""
        self._defused = True
        return self

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


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    The generator may ``yield`` any :class:`Event`; it is resumed with the
    event's value (or the event's exception is thrown into it).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        env.call_later(0.0, self._resume, None, URGENT)

    @property
    def is_alive(self) -> bool:
        return self._value is Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        event = _InterruptEvent(self.env, Interrupt(cause))
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        if isinstance(event, _InterruptEvent):
            # Detach from whatever we were waiting on; a later firing of that
            # stale target must not resume us a second time.  The abandoned
            # target is also *defused*: if it later fails (e.g. an AllOf
            # whose member raises after we stopped listening), the exception
            # has deliberately lost its consumer and must not crash the
            # simulation from Environment.step.
            if self._target is not None:
                self._target._defused = True
                if self._target.callbacks is not None:
                    try:
                        self._target.callbacks.remove(self._resume)
                    except ValueError:
                        pass
        elif self._target is not None and event is not self._target:
            return  # stale wakeup
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            if not self._scheduled:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self._scheduled:
                self.fail(exc)
                return
            raise
        if not isinstance(next_event, Event) or next_event.env is not self.env:
            error = SimulationError(
                f"process {self.name!r} yielded {next_event!r}, which is not "
                f"an Event of this Environment")
            self._generator.close()
            self.fail(error)
            return
        self._target = next_event
        if next_event._processed:
            # Already fired: resume immediately at the current time.
            immediate = self.env.call_later(0.0, self._resume,
                                            next_event._value, URGENT)
            immediate._ok = next_event._ok
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)


class _InterruptEvent(Event):
    """Carrier delivering an :class:`Interrupt` into a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", interrupt: Interrupt):
        super().__init__(env)
        self._ok = False
        self._value = interrupt


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple environments")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {ev: ev._value for ev in self.events if ev._processed}


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._results())


class Environment:
    """Executes events in simulated-time order.

    Usage::

        env = Environment()

        def proc(env):
            yield env.timeout(5)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.now == 5 and p.value == "done"
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
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
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
        if (not event._ok and not callbacks and not event._defused
                and not isinstance(event, Process)):
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

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` terminates; return its value or re-raise."""
        while process.is_alive:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: {process.name!r} is waiting but no events remain")
            self.step()
        if process._ok:
            return process._value
        raise process._value

    def discard(self) -> None:
        """Drop every pending event and pooled carrier, unprocessed.

        Each of them refers back to this environment, so a run that stops
        with events pending (a finished process's own completion, which
        nothing waits on) leaves a reference cycle that only a full
        collection frees.  A settled round discards them: they would
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
        event._defused = False
        event._cancelled = False
        self._pool.append(event)

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        proc = Process(self, generator, name=name)
        tel = self.telemetry
        if tel is not None:
            # Process lifecycle as a span.  The completion callback only
            # records; it schedules nothing, so the event sequence is
            # identical with or without a collector attached.
            span = tel.begin(proc.name, category="process",
                             track="sim/processes", at=self._now)
            tel.metrics.counter("sim.processes").inc()

            def _ended(event, tel=tel, span=span):
                tel.finish(span, self._now, ok=bool(event._ok))

            proc.callbacks.append(_ended)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)
