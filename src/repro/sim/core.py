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

The agenda is a two-lane agenda of two-slot ``[callback, value]`` entries
that :class:`Environment` holds itself (see ``docs/SIM_CORE.md``): the
entries at the current instant wait in an URGENT and a NORMAL lane, which
a zero-delay push appends to directly, and later instants wait in lane
pairs keyed by time behind a heap of the distinct times.  The total order
is pinned against a sorted-list model in
``tests/test_queue_properties.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = [
    "COMPACT_MIN_TOMBSTONES",
    "Environment",
    "SimulationError",
    "NORMAL",
    "URGENT",
]

#: Default scheduling priority for events.
NORMAL = 1
#: Priority for bookkeeping events that must run before normal ones at the
#: same timestamp (e.g. an executor's take hop, a crash reaching its node).
URGENT = 0

#: Compaction is considered only once this many cancelled entries have
#: accumulated; below it the dead weight is cheaper than the sweep.
COMPACT_MIN_TOMBSTONES = 64


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

    The agenda has two lanes per instant, URGENT then NORMAL, each a FIFO
    deque (append order *is* sequence order).  The current instant's
    pair is :attr:`lanes`: a push that lands at ``now`` is one append to
    it and a step at ``now`` one pop from it.  Later instants wait in a
    dict of lane pairs keyed by time, behind a heap of the distinct
    times; only moving the clock pops that heap.
    """

    def __init__(self, initial_time: float = 0.0):
        now = float(initial_time)
        if not math.isfinite(now):
            raise ValueError(f"initial_time must be finite, got {now}")
        #: The simulated clock.  Only :meth:`step` and :meth:`run` set it.
        self.now = now
        #: The current instant's ``[URGENT lane, NORMAL lane]``.  Updated
        #: in place, never rebound: a reader may hold the list.
        self._lanes: List[Deque[List[Any]]] = [deque(), deque()]
        #: Lane pairs of the instants after ``now``, keyed by time; a lane
        #: nothing was pushed to is None.
        self._future: Dict[float, List[Optional[Deque[List[Any]]]]] = {}
        #: The keys of ``_future``, as a heap.
        self._times: List[float] = []
        self._live = 0  # scheduled entries, not cancelled
        self._tombstones = 0  # cancelled entries still in a lane
        #: Entries removed from the agenda via :meth:`cancel`.
        self.cancellations = 0
        #: Optional :class:`~repro.telemetry.TelemetryCollector`.  None (the
        #: default) keeps every instrumentation site on the zero-cost path:
        #: one ``is not None`` test, no recording, no extra sim events.
        self.telemetry = None

    @property
    def lanes(self) -> List[Deque[List[Any]]]:
        """The current instant's lanes, ``lanes[URGENT]`` and
        ``lanes[NORMAL]``: read-only.  The list is never rebound, so a
        caller may hold it across calls; a lane in it is replaced when the
        clock moves or the agenda compacts, so index it afresh.  A lane
        may hold cancelled entries (``entry[0] is None``)."""
        return self._lanes

    # -- scheduling -------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[[Any], None],
                   value: Any = None, priority: int = NORMAL) -> List[Any]:
        """Run ``callback(value)`` ``delay`` from now, at ``priority``
        (:data:`URGENT` or :data:`NORMAL`).

        Entries are ordered by ``(time, priority, insertion sequence)``.
        The entry is returned as the handle for :meth:`cancel`.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay}")
        if priority != NORMAL and priority != URGENT:
            raise ValueError(
                f"priority must be URGENT ({URGENT}) or NORMAL ({NORMAL}), "
                f"got {priority!r}")
        entry = [callback, value]
        now = self.now
        at = now + delay
        if at == now:  # a zero delay, or one below now's last bit
            self._lanes[priority].append(entry)
        else:
            pair = self._future.get(at)
            if pair is None:
                pair = self._future[at] = [None, None]
                heapq.heappush(self._times, at)
            lane = pair[priority]
            if lane is None:
                pair[priority] = deque((entry,))
            else:
                lane.append(entry)
        self._live += 1
        return entry

    def yield_front(self, callback: Callable[[Any], None],
                    value: Any) -> bool:
        """If a live entry waits in the URGENT lane at ``now``, push
        ``[callback, value]`` at the front of the NORMAL lane; returns
        whether it did (how a batch entry yields, see
        ``docs/SIM_CORE.md``)."""
        lanes = self._lanes
        if not self._trim(lanes[URGENT]):
            return False
        lanes[NORMAL].appendleft([callback, value])
        self._live += 1
        return True

    def cancel(self, entry: List[Any]) -> None:
        """Remove a pending :meth:`call_later` entry from the agenda.

        The entry never fires: its callback does not run and it does not
        advance the clock.  Cancelling an entry that already fired or was
        cancelled is a no-op.  Physical removal is lazy -- pops skip
        tombstones (``entry[0] is None``) and the agenda compacts once
        they outnumber live entries (and exceed
        :data:`COMPACT_MIN_TOMBSTONES`) -- so heavy cancel churn (retry
        timers, straggler timeouts) cannot grow the agenda without bound.
        """
        if entry[0] is None:
            return
        entry[0] = None
        self.cancellations += 1
        self._live -= 1
        self._tombstones += 1
        compacted = (self._tombstones >= COMPACT_MIN_TOMBSTONES
                     and self._tombstones > self._live)
        if compacted:
            self._compact()
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("sim.events_cancelled").inc()
            if compacted:
                tel.metrics.counter("sim.queue_compactions").inc()

    def _compact(self) -> None:
        """Physically remove every tombstone, and every instant left
        without entries."""
        lanes = self._lanes
        for priority in (URGENT, NORMAL):
            lanes[priority] = deque(
                [e for e in lanes[priority] if e[0] is not None])
        future = self._future
        for at, pair in list(future.items()):
            urgent, normal = pair
            if urgent is not None:
                urgent = pair[URGENT] = (
                    deque([e for e in urgent if e[0] is not None]) or None)
            if normal is not None:
                normal = pair[NORMAL] = (
                    deque([e for e in normal if e[0] is not None]) or None)
            if urgent is None and normal is None:
                del future[at]
        times = self._times
        times[:] = future
        heapq.heapify(times)
        self._tombstones = 0

    def _trim(self, lane: Optional[Deque[List[Any]]]) -> bool:
        """Drop the cancelled entries at the head of ``lane``; returns
        whether a live entry remains."""
        while lane and lane[0][0] is None:
            lane.popleft()
            self._tombstones -= 1
        return bool(lane)

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        urgent, normal = self._lanes
        if self._trim(urgent) or self._trim(normal):
            return self.now
        times, future = self._times, self._future
        while times:
            at = times[0]
            urgent, normal = future[at]
            if self._trim(urgent) or self._trim(normal):
                return at
            del future[at]
            heapq.heappop(times)
        return math.inf

    def step(self) -> None:
        """Process the single next entry."""
        if not self._live:
            raise SimulationError("no more events")
        lanes = self._lanes
        while True:
            lane = lanes[URGENT] or lanes[NORMAL]
            if not lane:  # the current instant is done: move the clock
                at = heapq.heappop(self._times)
                urgent, normal = self._future.pop(at)
                if urgent is not None:
                    lanes[URGENT] = urgent
                if normal is not None:
                    lanes[NORMAL] = normal
                self.now = at
                continue
            entry = lane.popleft()
            callback = entry[0]
            if callback is not None:
                break
            self._tombstones -= 1
        self._live -= 1
        entry[0] = None  # fired: a later cancel is a no-op
        callback(entry[1])

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda is empty or simulated time reaches ``until``."""
        if until is None:
            while self._live:
                self.step()
            return
        if not until >= self.now:  # also rejects NaN
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while self._live and self.peek() <= until:
            self.step()
        self.now = until

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
        for pair in (self._lanes, *self._future.values()):
            for lane in pair:
                if lane is not None:
                    for entry in lane:
                        entry[0] = None
                    lane.clear()
        self._future.clear()
        self._times.clear()
        self._live = self._tombstones = 0
