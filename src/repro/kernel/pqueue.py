"""The kernel's priority-queue primitive.

This module is the single sanctioned home of the ``heapq`` import in the
source tree (pinned by ``HOST_IMPORTS`` in ``tests/test_layering.py``).
Anything outside ``repro.kernel`` that needs a
heap — load-balancing strategies, future schedulers — goes through
:class:`MinHeap` so the ordering discipline (and any future replacement
of the backing structure) lives in one place.  The event core itself
replaced its heap with batched sorted slots and does not go through this
module; the frozen reference kernel that still does is a test oracle
under ``tests/kernel/``.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional

__all__ = ["MinHeap"]


class MinHeap:
    """A thin, deterministic min-heap over comparable items.

    Ties between equal items fall back to the backing list's stability
    guarantees only if the items themselves compare unequal — callers
    that need FIFO ties (the event kernel, GreedyLB's ``(finish, pe)``
    tuples) must encode the tie-break in the item, exactly as before.

    :attr:`data` is the raw backing list, heap-ordered.  Its identity is
    stable for the life of the ``MinHeap`` (``rebuild`` mutates it in
    place); outside the kernel package treat it as read-only.
    """

    __slots__ = ("data",)

    def __init__(self, items: Optional[Iterable[Any]] = None) -> None:
        self.data: List[Any] = list(items) if items is not None else []
        if self.data:
            heapq.heapify(self.data)

    def push(self, item: Any) -> None:
        heapq.heappush(self.data, item)

    def pop(self) -> Any:
        return heapq.heappop(self.data)

    def peek(self) -> Any:
        return self.data[0]

    def replace(self, item: Any) -> Any:
        """Pop the smallest item and push ``item`` in one sift."""
        return heapq.heapreplace(self.data, item)

    def rebuild(self, items: Iterable[Any]) -> None:
        """Replace the heap's contents wholesale, in place (used by the
        kernel's batched cancellation sweep)."""
        self.data[:] = items
        heapq.heapify(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __iter__(self):
        """Unordered iteration over the raw backing list."""
        return iter(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MinHeap len={len(self.data)}>"
