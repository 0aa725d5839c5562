"""Circular buffer used as the backing store of posting lists.

Section 6.2 of the paper: *"In order to avoid many and small memory
(de)allocations, we implement posting lists using a circular byte buffer.
When the buffer becomes full we double its capacity, while when its size
drops below 1/4 we halve it."*

:class:`CircularBuffer` reproduces that behaviour for arbitrary Python
objects.  Items are appended at the tail (newest) and removed from the head
(oldest), which matches how the streaming indexes prune expired postings:
the head of a time-ordered list always holds the oldest entry.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Generic, TypeVar

T = TypeVar("T")

__all__ = ["CircularBuffer"]

_MIN_CAPACITY = 8


class CircularBuffer(Generic[T]):
    """A ring buffer with amortised O(1) append and drop-from-head.

    Capacity doubles when full and halves when occupancy drops below a
    quarter (never below ``_MIN_CAPACITY``), mirroring the resizing policy
    described in the paper.
    """

    __slots__ = ("_data", "_head", "_size", "_capacity")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        self._capacity = max(int(capacity), _MIN_CAPACITY)
        self._data: list[T | None] = [None] * self._capacity
        self._head = 0
        self._size = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def capacity(self) -> int:
        """Current allocated capacity of the ring."""
        return self._capacity

    def __getitem__(self, index: int) -> T:
        """Item at logical position ``index`` (0 = oldest, -1 = newest)."""
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        return self._data[(self._head + index) % self._capacity]  # type: ignore[return-value]

    def __iter__(self) -> Iterator[T]:
        """Iterate from oldest to newest."""
        for offset in range(self._size):
            yield self._data[(self._head + offset) % self._capacity]  # type: ignore[misc]

    def iter_newest_first(self) -> Iterator[T]:
        """Iterate from newest to oldest (used by the backward CG scan)."""
        for offset in range(self._size - 1, -1, -1):
            yield self._data[(self._head + offset) % self._capacity]  # type: ignore[misc]

    def to_list(self) -> list[T]:
        """Copy of the contents from oldest to newest."""
        end = self._head + self._size
        if end <= self._capacity:
            return self._data[self._head:end]  # type: ignore[return-value]
        return (self._data[self._head:]  # type: ignore[return-value]
                + self._data[:end - self._capacity])

    # -- mutation -------------------------------------------------------------

    def append(self, item: T) -> None:
        """Append ``item`` at the tail (newest position)."""
        if self._size == self._capacity:
            self._resize(self._capacity * 2)
        self._data[(self._head + self._size) % self._capacity] = item
        self._size += 1

    def drop_oldest(self, count: int) -> int:
        """Remove up to ``count`` items from the head; return how many were dropped."""
        if count <= 0:
            return 0
        dropped = min(count, self._size)
        for offset in range(dropped):
            self._data[(self._head + offset) % self._capacity] = None
        self._head = (self._head + dropped) % self._capacity
        self._size -= dropped
        self._maybe_shrink()
        return dropped

    def keep_newest(self, count: int) -> int:
        """Keep only the ``count`` newest items; return how many were dropped."""
        return self.drop_oldest(self._size - max(count, 0))

    def replace_all(self, items: list[T]) -> None:
        """Replace the whole content (used when compacting unordered lists)."""
        self._size = 0
        self._head = 0
        needed = max(_MIN_CAPACITY, len(items))
        if needed > self._capacity or needed * 4 < self._capacity:
            self._capacity = self._next_capacity(needed)
            self._data = [None] * self._capacity
        else:
            for position in range(len(self._data)):
                self._data[position] = None
        for item in items:
            self.append(item)

    def clear(self) -> None:
        """Remove every item and reset to the minimum capacity."""
        self._data = [None] * _MIN_CAPACITY
        self._capacity = _MIN_CAPACITY
        self._head = 0
        self._size = 0

    # -- internal -------------------------------------------------------------

    @staticmethod
    def _next_capacity(needed: int) -> int:
        capacity = _MIN_CAPACITY
        while capacity < needed:
            capacity *= 2
        return capacity

    def _maybe_shrink(self) -> None:
        if self._capacity > _MIN_CAPACITY and self._size * 4 < self._capacity:
            self._resize(max(_MIN_CAPACITY, self._capacity // 2))

    def _resize(self, new_capacity: int) -> None:
        items = self.to_list()
        self._capacity = max(new_capacity, _MIN_CAPACITY, len(items))
        self._data = [None] * self._capacity
        self._head = 0
        self._size = 0
        for item in items:
            self._data[self._size] = item
            self._size += 1
