"""Discrete-event simulation kernel.

A minimal, deterministic discrete-event simulator with one scheduling
primitive: a timed behaviour is a ``callback(value)`` agenda entry
(:meth:`Environment.call_later`), and a behaviour that spans several
instants is a state machine whose callbacks schedule the next step.
The kernel has no event objects: a signal (a gradient's ready ref, a
task graph settling) is state on the object that owns it, set by one
such entry, and whoever waits on it steps the agenda until it is set.

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

    def call_later(self, delay: float, callback: Callable[[Any], None],
                   value: Any = None, priority: int = NORMAL) -> List[Any]:
        """Run ``callback(value)`` ``delay`` from now, at ``priority``.

        Entries are ordered by ``(time, priority, insertion sequence)``.
        The entry is returned as the handle for :meth:`cancel`.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay}")
        entry = [callback, value]
        self._queue.push(self._now + delay, priority, entry)
        return entry

    def yield_front(self, callback: Callable[[Any], None],
                    value: Any) -> bool:
        """If a live entry is queued ahead of ``(now, NORMAL)``, push
        ``[callback, value]`` at the front of that slot; returns whether
        it did (how a batch entry yields, see ``docs/SIM_CORE.md``)."""
        key = (self._now, NORMAL)
        keys = self._queue._keys
        if keys and keys[0] < key:
            self._queue.peek_time()  # drops cancelled entries at the head
            if keys and keys[0] < key:
                self._queue.push_front(self._now, NORMAL, [callback, value])
                return True
        return False

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
