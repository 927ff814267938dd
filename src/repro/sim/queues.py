"""The event queue backing :class:`~repro.sim.core.Environment`.

:class:`SlottedQueue` orders scheduled events by ``(time, priority,
insertion sequence)``.  It is a calendar-style queue keyed on the
*distinct* ``(time, priority)`` instants.  Discrete-event workloads in
this repository are heavily co-scheduled (a bulk flush completes hundreds
of tasks at one instant; a backward pass releases a layer's worth of work
at once), so the number of distinct keys is far smaller than the number
of events.  Each key holds a FIFO slot (a deque -- append order *is*
sequence order), and only slot creation/exhaustion touches the key heap:
the common-case insert is one dict probe plus one append, O(1).

Cancellation is lazy: :meth:`~repro.sim.core.Environment.cancel` only
flags the event, and the queue skips flagged entries at pop time.  To
bound growth under cancel churn (straggler/timeout workloads create one
dead timer per retry attempt), the queue counts tombstones and compacts
-- physically removing dead entries -- once they outnumber the live
events (and exceed :data:`COMPACT_MIN_TOMBSTONES`, so tiny queues never
bother).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Tuple

__all__ = ["COMPACT_MIN_TOMBSTONES", "SlottedQueue"]

#: Compaction is considered only once this many cancelled entries have
#: accumulated; below it the dead weight is cheaper than the sweep.
COMPACT_MIN_TOMBSTONES = 64


class SlottedQueue:
    """Calendar queue over distinct ``(time, priority)`` slots.

    The slot deque preserves insertion order, which is the sequence-number
    tie-break; the key heap orders the slots.  Pushing into an existing
    slot never touches the heap.
    """

    __slots__ = ("_slots", "_keys", "_live", "_tombstones", "compactions")

    def __init__(self):
        self._slots = {}
        self._keys: List[Tuple[float, int]] = []
        self._live = 0
        self._tombstones = 0
        #: Number of compaction sweeps performed (observability).
        self.compactions = 0

    def __len__(self) -> int:
        """Number of *live* (scheduled, not cancelled) events."""
        return self._live

    @property
    def tombstones(self) -> int:
        """Cancelled entries still physically present in the queue."""
        return self._tombstones

    def push(self, time: float, priority: int, event) -> None:
        key = (time, priority)
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = deque((event,))
            heapq.heappush(self._keys, key)
        else:
            slot.append(event)
        self._live += 1

    def pop(self) -> Tuple[float, object]:
        keys, slots = self._keys, self._slots
        while True:
            key = keys[0]
            slot = slots[key]
            event = slot.popleft()
            if not slot:
                del slots[key]
                heapq.heappop(keys)
            if event._cancelled:
                self._tombstones -= 1
                continue
            self._live -= 1
            return key[0], event

    def peek_time(self) -> float:
        keys, slots = self._keys, self._slots
        while keys:
            key = keys[0]
            slot = slots[key]
            while slot and slot[0]._cancelled:
                slot.popleft()
                self._tombstones -= 1
            if not slot:
                del slots[key]
                heapq.heappop(keys)
                continue
            return key[0]
        return float("inf")

    def note_cancel(self) -> None:
        """Account for one event flagged as cancelled; maybe compact."""
        self._tombstones += 1
        self._live -= 1
        if (self._tombstones >= COMPACT_MIN_TOMBSTONES
                and self._tombstones > self._live):
            self.compact()
            self.compactions += 1

    def compact(self) -> None:
        slots = self._slots
        for key in list(slots):
            live = deque(ev for ev in slots[key] if not ev._cancelled)
            if live:
                slots[key] = live
            else:
                del slots[key]
        self._keys = [key for key in self._keys if key in slots]
        heapq.heapify(self._keys)
        self._tombstones = 0
