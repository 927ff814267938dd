"""The agenda queue backing :class:`~repro.sim.core.Environment`.

:class:`SlottedQueue` orders agenda entries by ``(time, priority,
insertion sequence)``.  It is a calendar-style queue keyed on the
*distinct* ``(time, priority)`` instants.  Discrete-event workloads in
this repository are heavily co-scheduled (a bulk flush completes hundreds
of tasks at one instant; a backward pass releases a layer's worth of work
at once), so the number of distinct keys is far smaller than the number
of entries.  Each key holds a FIFO slot (a deque -- append order *is*
sequence order), and only slot creation/exhaustion touches the key heap:
the common-case insert is one dict probe plus one append, O(1).

An entry is a two-slot list ``[callback, value]``.  Cancellation is
lazy: :meth:`~repro.sim.core.Environment.cancel` only sets its callback
slot to None -- the tombstone -- and the queue skips tombstones at pop
time.  To
bound growth under cancel churn (straggler/timeout workloads create one
dead timer per retry attempt), the queue counts tombstones and compacts
-- physically removing dead entries -- once they outnumber the live
entries (and exceed :data:`COMPACT_MIN_TOMBSTONES`, so tiny queues never
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
        """Number of *live* (scheduled, not cancelled) entries."""
        return self._live

    @property
    def tombstones(self) -> int:
        """Cancelled entries still physically present in the queue."""
        return self._tombstones

    def push(self, time: float, priority: int, entry: list) -> None:
        key = (time, priority)
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = deque((entry,))
            heapq.heappush(self._keys, key)
        else:
            slot.append(entry)
        self._live += 1

    def push_front(self, time: float, priority: int, entry: list) -> None:
        """:meth:`push`, but ahead of every entry already in the slot."""
        key = (time, priority)
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = deque((entry,))
            heapq.heappush(self._keys, key)
        else:
            slot.appendleft(entry)
        self._live += 1

    def pop(self) -> Tuple[float, list]:
        keys, slots = self._keys, self._slots
        while True:
            key = keys[0]
            slot = slots[key]
            entry = slot.popleft()
            if not slot:
                del slots[key]
                heapq.heappop(keys)
            if entry[0] is None:
                self._tombstones -= 1
                continue
            self._live -= 1
            return key[0], entry

    def peek_time(self) -> float:
        keys, slots = self._keys, self._slots
        while keys:
            key = keys[0]
            slot = slots[key]
            while slot and slot[0][0] is None:
                slot.popleft()
                self._tombstones -= 1
            if not slot:
                del slots[key]
                heapq.heappop(keys)
                continue
            return key[0]
        return float("inf")

    def note_cancel(self) -> None:
        """Account for one entry turned into a tombstone; maybe compact."""
        self._tombstones += 1
        self._live -= 1
        if (self._tombstones >= COMPACT_MIN_TOMBSTONES
                and self._tombstones > self._live):
            self.compact()
            self.compactions += 1

    def clear(self) -> None:
        """Drop every entry, each turned into a tombstone first, so a
        handle cancelled later finds it dead."""
        for slot in self._slots.values():
            for entry in slot:
                entry[0] = None
        self._slots = {}
        self._keys = []
        self._live = self._tombstones = 0

    def compact(self) -> None:
        slots = self._slots
        for key in list(slots):
            live = deque(entry for entry in slots[key]
                         if entry[0] is not None)
            if live:
                slots[key] = live
            else:
                del slots[key]
        self._keys = [key for key in self._keys if key in slots]
        heapq.heapify(self._keys)
        self._tombstones = 0
