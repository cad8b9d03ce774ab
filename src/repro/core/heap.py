"""Priority queues used by the path searches.

Two structures are provided:

* :class:`AddressableBinaryHeap` -- a binary min-heap with decrease-key,
  addressing items by an integer id.  Global routing graphs have
  ``m = O(n)`` edges, so binary heaps are the right trade-off (paper
  Section III-B); Fibonacci heaps only matter for the asymptotic statement.
* :class:`TwoLevelHeap` -- the two-level structure of Section III-B: one
  sub-heap per active search plus a top-level heap holding one entry per
  non-empty sub-heap, keyed by that sub-heap's minimum.

Both run on the same module-level kernels over a heap's three parallel
containers ``(keys, items, position)``.  The searches break equal-key ties by
the array layout these kernels produce, so the layout is part of the routed
output: a change here must keep the exact sequence of comparisons and moves
(``<=`` stops a sift-up, ties go to the left child in a sift-down).
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Tuple, TypeVar

__all__ = ["AddressableBinaryHeap", "TwoLevelHeap"]

K = TypeVar("K", bound=Hashable)

_INF = float("inf")


# ------------------------------------------------------------------ kernels
def _sift_up(keys: list, items: list, position: dict, pos: int) -> None:
    key = keys[pos]
    item = items[pos]
    while pos > 0:
        parent = (pos - 1) >> 1
        parent_key = keys[parent]
        if parent_key <= key:
            break
        keys[pos] = parent_key
        moved = items[parent]
        items[pos] = moved
        position[moved] = pos
        pos = parent
    keys[pos] = key
    items[pos] = item
    position[item] = pos


def _sift_down(keys: list, items: list, position: dict, pos: int) -> None:
    size = len(items)
    key = keys[pos]
    item = items[pos]
    child = 2 * pos + 1
    while child < size:
        child_key = keys[child]
        right = child + 1
        if right < size:
            right_key = keys[right]
            if right_key < child_key:
                child = right
                child_key = right_key
        if child_key >= key:
            break
        keys[pos] = child_key
        moved = items[child]
        items[pos] = moved
        position[moved] = pos
        pos = child
        child = 2 * pos + 1
    keys[pos] = key
    items[pos] = item
    position[item] = pos


def _insert_or_decrease(keys: list, items: list, position: dict, item, key: float) -> int:
    """``2`` if ``item`` was inserted, ``1`` if its key decreased, ``0`` if
    its key was already smaller or equal."""
    pos = position.get(item)
    if pos is None:
        pos = len(items)
        keys.append(key)
        items.append(item)
        _sift_up(keys, items, position, pos)
        return 2
    if key < keys[pos]:
        keys[pos] = key
        _sift_up(keys, items, position, pos)
        return 1
    return 0


def _pop(keys: list, items: list, position: dict) -> tuple:
    min_key = keys[0]
    min_item = items[0]
    last_key = keys.pop()
    last_item = items.pop()
    del position[min_item]
    if items:
        keys[0] = last_key
        items[0] = last_item
        _sift_down(keys, items, position, 0)
    return min_key, min_item


def _remove(keys: list, items: list, position: dict, item) -> None:
    pos = position.pop(item, None)
    if pos is None:
        return
    last_key = keys.pop()
    last_item = items.pop()
    if pos != len(items):
        keys[pos] = last_key
        items[pos] = last_item
        _sift_down(keys, items, position, pos)
        _sift_up(keys, items, position, pos)


# ------------------------------------------------------------------- heaps
class AddressableBinaryHeap(Generic[K]):
    """Binary min-heap with decrease-key, keyed by arbitrary hashable ids."""

    def __init__(self) -> None:
        self._keys: List[float] = []
        self._items: List[K] = []
        self._position: Dict[K, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: K) -> bool:
        return item in self._position

    def key_of(self, item: K) -> float:
        """Current key of ``item`` (raises ``KeyError`` if absent)."""
        return self._keys[self._position[item]]

    def peek(self) -> Tuple[float, K]:
        """The minimum (key, item) without removing it."""
        if not self._items:
            raise IndexError("peek from an empty heap")
        return self._keys[0], self._items[0]

    def min_key(self) -> float:
        """The minimum key, ``inf`` if the heap is empty."""
        return self._keys[0] if self._items else _INF

    def push(self, item: K, key: float) -> bool:
        """Insert ``item`` or decrease its key.

        Returns ``True`` if the item was inserted or its key decreased,
        ``False`` if the existing key was already smaller or equal.
        """
        return _insert_or_decrease(self._keys, self._items, self._position, item, key) != 0

    def pop(self) -> Tuple[float, K]:
        """Remove and return the minimum (key, item)."""
        if not self._items:
            raise IndexError("pop from an empty heap")
        return _pop(self._keys, self._items, self._position)

    def remove(self, item: K) -> None:
        """Remove ``item`` from the heap if present."""
        _remove(self._keys, self._items, self._position, item)


class TwoLevelHeap(Generic[K]):
    """One sub-heap per search plus a top-level heap over sub-heap minima.

    Items are addressed by ``(search_id, item)``.  The top-level heap holds
    at most one entry per search, keyed by the minimum of that search's
    sub-heap.  A push that lowers a sub-heap's minimum inserts or
    decreases the search's top entry.  Every extraction pops the top entry,
    pops the minimum of its sub-heap and, unless that sub-heap is now empty,
    pushes the search back with the new minimum -- so the top level sees a
    pop and usually a push on every extraction.  Top entries of removed or
    emptied searches, and entries whose key no longer matches their
    sub-heap minimum, are dropped or refreshed lazily when they surface.
    """

    def __init__(self) -> None:
        #: search id -> the sub-heap's ``(keys, items, position)``.
        self._subheaps: Dict[Hashable, Tuple[List[float], List[K], Dict[K, int]]] = {}
        self._top: Tuple[List[float], List[Hashable], Dict[Hashable, int]] = ([], [], {})
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add_search(self, search_id: Hashable) -> None:
        """Register a (possibly empty) sub-heap for ``search_id``."""
        if search_id not in self._subheaps:
            self._subheaps[search_id] = ([], [], {})

    def remove_search(self, search_id: Hashable) -> None:
        """Drop a search and all of its queued items."""
        sub = self._subheaps.pop(search_id, None)
        if sub is not None:
            self._size -= len(sub[0])
            _remove(*self._top, search_id)

    def push(self, search_id: Hashable, item: K, key: float) -> bool:
        """Insert or decrease-key ``item`` in the sub-heap of ``search_id``."""
        sub = self._subheaps.get(search_id)
        if sub is None:
            sub = self._subheaps[search_id] = ([], [], {})
        keys, items, position = sub
        old_min = keys[0] if keys else _INF
        outcome = _insert_or_decrease(keys, items, position, item, key)
        if outcome == 0:
            return False
        if outcome == 2:
            self._size += 1
        # The top-level entry tracks the sub-heap minimum; it only moves
        # when this push actually lowered that minimum.
        if key < old_min:
            top_keys, top_items, top_position = self._top
            _insert_or_decrease(top_keys, top_items, top_position, search_id, key)
        return True

    def pop(self) -> Tuple[float, Hashable, K]:
        """Remove and return the globally minimal ``(key, search_id, item)``."""
        if self._size == 0:
            raise IndexError("pop from an empty two-level heap")
        top_keys, top_items, top_position = self._top
        subheaps = self._subheaps
        while True:
            top_key = top_keys[0]
            search_id = top_items[0]
            sub = subheaps.get(search_id)
            if sub is None or not sub[0]:
                _pop(top_keys, top_items, top_position)
                continue
            keys, items, position = sub
            if keys[0] != top_key:
                # Stale top entry -- refresh and retry.
                _pop(top_keys, top_items, top_position)
                _insert_or_decrease(top_keys, top_items, top_position, search_id, keys[0])
                continue
            key, item = _pop(keys, items, position)
            self._size -= 1
            _pop(top_keys, top_items, top_position)
            if items:
                _insert_or_decrease(top_keys, top_items, top_position, search_id, keys[0])
            return key, search_id, item

    def min_key(self) -> float:
        """The globally minimal key, ``inf`` when empty."""
        top_keys, top_items, top_position = self._top
        while top_items:
            top_key = top_keys[0]
            search_id = top_items[0]
            sub = self._subheaps.get(search_id)
            if sub is None or not sub[0]:
                _pop(top_keys, top_items, top_position)
                continue
            if sub[0][0] != top_key:
                _pop(top_keys, top_items, top_position)
                _insert_or_decrease(top_keys, top_items, top_position, search_id, sub[0][0])
                continue
            return top_key
        return _INF
