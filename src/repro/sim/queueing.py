"""The simulation engine's event queue.

The engine's total event order is the tuple ``(time, tiebreak, seq)`` —
simulated time first, then a seeded pseudo-random tie-break, then a
monotonic sequence number as the final word. :class:`HeapEventQueue` is a
binary heap (:mod:`heapq`, C-accelerated, O(log n) per operation) over
entries kept in exactly that order.

Entries are 5-tuples ``(time, tiebreak, seq, event, value)``. Tuple
comparison never reaches the event object because ``seq`` is unique.
"""

from __future__ import annotations

import heapq

__all__ = ["HeapEventQueue"]

#: one queued occurrence: (time, tiebreak, seq, event, value)
Entry = tuple


class HeapEventQueue:
    """Push anywhere, pop in total-key order: the engine's binary heap."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Entry] = []

    def push(self, entry: Entry) -> None:
        """Insert one entry."""
        heapq.heappush(self._heap, entry)

    def pop(self) -> Entry:
        """Remove and return the entry with the smallest key."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the smallest entry, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)
