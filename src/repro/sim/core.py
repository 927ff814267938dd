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
entries that :class:`Environment` holds itself (see ``docs/SIM_CORE.md``);
the total order is pinned against a sorted-list model in
``tests/test_queue_properties.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
#: same timestamp (e.g. a kernel's grant hop, a crash reaching its node).
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

    The agenda is keyed on the *distinct* ``(time, priority)`` instants,
    which co-scheduled workloads share heavily.  Each key holds a FIFO
    slot (a deque: append order *is* sequence order), and only a slot's
    creation or exhaustion touches the key heap.
    """

    def __init__(self, initial_time: float = 0.0):
        now = float(initial_time)
        if not math.isfinite(now):
            raise ValueError(f"initial_time must be finite, got {now}")
        #: The simulated clock.  Only :meth:`step` and :meth:`run` set it.
        self.now = now
        self._slots: Dict[Tuple[float, int], Deque[List[Any]]] = {}
        #: The distinct keys of ``_slots``, as a heap.  Updated in place,
        #: never rebound: a reader may hold the list across calls.
        self._keys: List[Tuple[float, int]] = []
        self._live = 0  # scheduled entries, not cancelled
        self._tombstones = 0  # cancelled entries still in a slot
        #: Entries removed from the agenda via :meth:`cancel`.
        self.cancellations = 0
        #: Optional :class:`~repro.telemetry.TelemetryCollector`.  None (the
        #: default) keeps every instrumentation site on the zero-cost path:
        #: one ``is not None`` test, no recording, no extra sim events.
        self.telemetry = None

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
        key = (self.now + delay, priority)
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = deque((entry,))
            heapq.heappush(self._keys, key)
        else:
            slot.append(entry)
        self._live += 1
        return entry

    def yield_front(self, callback: Callable[[Any], None],
                    value: Any) -> bool:
        """If a live entry is queued ahead of ``(now, NORMAL)``, push
        ``[callback, value]`` at the front of that slot; returns whether
        it did (how a batch entry yields, see ``docs/SIM_CORE.md``)."""
        self.peek()  # drops cancelled entries at the head
        key, keys = (self.now, NORMAL), self._keys
        if not (keys and keys[0] < key):
            return False
        entry = [callback, value]
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = deque((entry,))
            heapq.heappush(keys, key)
        else:
            slot.appendleft(entry)
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
        if compacted:  # physically remove every tombstone
            slots, keys = self._slots, self._keys
            for key in list(slots):
                live = deque(e for e in slots[key] if e[0] is not None)
                if live:
                    slots[key] = live
                else:
                    del slots[key]
            keys[:] = [key for key in keys if key in slots]
            heapq.heapify(keys)
            self._tombstones = 0
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("sim.events_cancelled").inc()
            if compacted:
                tel.metrics.counter("sim.queue_compactions").inc()

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        keys, slots = self._keys, self._slots
        while keys:
            key = keys[0]
            slot = slots[key]
            while slot and slot[0][0] is None:
                slot.popleft()
                self._tombstones -= 1
            if slot:
                return key[0]
            del slots[key]
            heapq.heappop(keys)
        return math.inf

    def step(self) -> None:
        """Process the single next entry."""
        if not self._live:
            raise SimulationError("no more events")
        keys, slots = self._keys, self._slots
        while True:
            key = keys[0]
            slot = slots[key]
            entry = slot.popleft()
            if not slot:
                del slots[key]
                heapq.heappop(keys)
            callback = entry[0]
            if callback is not None:
                break
            self._tombstones -= 1
        self._live -= 1
        self.now = key[0]
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
        for slot in self._slots.values():
            for entry in slot:
                entry[0] = None
        self._slots.clear()
        self._keys.clear()
        self._live = self._tombstones = 0
