"""B+-tree index.

A textbook B+-tree with linked leaves: the OLTP index of the paper's
discussion ("few indexes on the most selective attributes").  Keys are ordered
with :func:`repro.core.values.sort_key` so that heterogeneous values (numbers,
strings, the SUPPRESSED sentinel) keep a stable total order while data
degrades.

Duplicate keys are supported (every leaf entry carries a set of row keys).
Deletion removes entries in place; structural rebalancing on underflow is
intentionally lazy — leaves may become sparse but never violate ordering —
which matches the behaviour of many production engines that defer merges to a
vacuum phase (exposed here as :meth:`BPlusTreeIndex.rebuild`).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Set, Tuple

from ..core.errors import IndexError_
from ..core.values import sort_key
from .base import Index


class _Node:
    __slots__ = ("keys", "sort_keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: List[Any] = []
        self.sort_keys: List[tuple] = []
        self.children: List["_Node"] = []       # internal nodes only
        self.values: List[Set[int]] = []         # leaf nodes only
        self.next_leaf: Optional["_Node"] = None


class BPlusTreeIndex(Index):
    """Ordered index with O(log n) point and range lookups."""

    kind = "btree"

    def __init__(self, name: str, order: int = 32) -> None:
        super().__init__(name)
        if order < 4:
            raise IndexError_("B+-tree order must be at least 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0  # number of (key, row_key) entries

    # -- internal navigation -------------------------------------------------

    def _find_leaf(self, skey: tuple) -> _Node:
        node = self._root
        while not node.is_leaf:
            self.stats.nodes_visited += 1
            index = bisect.bisect_right(node.sort_keys, skey)
            node = node.children[index]
        self.stats.nodes_visited += 1
        return node

    # -- mutation ---------------------------------------------------------------

    def insert(self, key: Any, row_key: int, level: Optional[int] = None) -> None:
        skey = sort_key(key)
        path: List[Tuple[_Node, int]] = []
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.sort_keys, skey)
            path.append((node, index))
            node = node.children[index]
        index = bisect.bisect_left(node.sort_keys, skey)
        if index < len(node.keys) and node.sort_keys[index] == skey:
            node.values[index].add(row_key)
        else:
            node.keys.insert(index, key)
            node.sort_keys.insert(index, skey)
            node.values.insert(index, {row_key})
        self._size += 1
        self.stats.inserts += 1
        if len(node.keys) > self.order:
            self._split(node, path)

    def _split(self, node: _Node, path: List[Tuple[_Node, int]]) -> None:
        middle = len(node.keys) // 2
        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            sibling.keys = node.keys[middle:]
            sibling.sort_keys = node.sort_keys[middle:]
            sibling.values = node.values[middle:]
            node.keys = node.keys[:middle]
            node.sort_keys = node.sort_keys[:middle]
            node.values = node.values[:middle]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
            separator_key = sibling.keys[0]
            separator_skey = sibling.sort_keys[0]
        else:
            separator_key = node.keys[middle]
            separator_skey = node.sort_keys[middle]
            sibling.keys = node.keys[middle + 1:]
            sibling.sort_keys = node.sort_keys[middle + 1:]
            sibling.children = node.children[middle + 1:]
            node.keys = node.keys[:middle]
            node.sort_keys = node.sort_keys[:middle]
            node.children = node.children[:middle + 1]
        if not path:
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator_key]
            new_root.sort_keys = [separator_skey]
            new_root.children = [node, sibling]
            self._root = new_root
            return
        parent, child_index = path[-1]
        parent.keys.insert(child_index, separator_key)
        parent.sort_keys.insert(child_index, separator_skey)
        parent.children.insert(child_index + 1, sibling)
        if len(parent.keys) > self.order:
            self._split(parent, path[:-1])

    def delete(self, key: Any, row_key: int, level: Optional[int] = None) -> bool:
        skey = sort_key(key)
        leaf = self._find_leaf(skey)
        index = bisect.bisect_left(leaf.sort_keys, skey)
        if index >= len(leaf.keys) or leaf.sort_keys[index] != skey:
            return False
        if row_key not in leaf.values[index]:
            return False
        leaf.values[index].discard(row_key)
        if not leaf.values[index]:
            del leaf.keys[index]
            del leaf.sort_keys[index]
            del leaf.values[index]
        self._size -= 1
        self.stats.deletes += 1
        return True

    # -- queries -------------------------------------------------------------------

    def search(self, key: Any) -> List[int]:
        self.stats.lookups += 1
        skey = sort_key(key)
        leaf = self._find_leaf(skey)
        index = bisect.bisect_left(leaf.sort_keys, skey)
        if index < len(leaf.keys) and leaf.sort_keys[index] == skey:
            self.stats.entries_scanned += len(leaf.values[index])
            return sorted(leaf.values[index])
        return []

    def range_search(self, low: Any = None, high: Any = None,
                     include_low: bool = True, include_high: bool = True) -> List[int]:
        result: Set[int] = set()
        for _key, row_key in self.iter_range_entries(low, high,
                                                     include_low, include_high):
            result.add(row_key)
        return sorted(result)

    def iter_range_entries(self, low: Any = None, high: Any = None,
                           include_low: bool = True,
                           include_high: bool = True) -> Iterator[Tuple[Any, int]]:
        """Stream ``(key, row key)`` pairs of a range in key order.

        Lazy leaf walk: a consumer that stops after ``k`` rows (``LIMIT k``)
        pays O(log n + k) index work instead of materializing the whole
        range (``entries_scanned`` counts only what was actually pulled).
        """
        self.stats.range_scans += 1
        low_skey = sort_key(low) if low is not None else None
        high_skey = sort_key(high) if high is not None else None
        # Start at the leftmost relevant leaf.
        if low_skey is None:
            node = self._root
            while not node.is_leaf:
                self.stats.nodes_visited += 1
                node = node.children[0]
            leaf: Optional[_Node] = node
            start = 0
        else:
            leaf = self._find_leaf(low_skey)
            start = bisect.bisect_left(leaf.sort_keys, low_skey)
        while leaf is not None:
            for index in range(start, len(leaf.keys)):
                skey = leaf.sort_keys[index]
                self.stats.entries_scanned += 1
                if low_skey is not None:
                    if skey < low_skey or (skey == low_skey and not include_low):
                        continue
                if high_skey is not None:
                    if skey > high_skey or (skey == high_skey and not include_high):
                        return
                key = leaf.keys[index]
                for row_key in sorted(leaf.values[index]):
                    yield key, row_key
            leaf = leaf.next_leaf
            start = 0

    def iter_range_keys(self, low: Any = None, high: Any = None,
                        include_low: bool = True,
                        include_high: bool = True) -> Iterator[int]:
        """Row keys of a range, streamed in key order (scan access path)."""
        for _key, row_key in self.iter_range_entries(low, high,
                                                     include_low, include_high):
            yield row_key

    # -- introspection -----------------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from node.keys
            node = node.next_leaf

    def items(self) -> Iterator[Tuple[Any, Set[int]]]:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        height = 1
        node = self._root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height

    def rebuild(self) -> None:
        """Bulk rebuild the tree from its live entries (vacuum)."""
        entries = list(self.items())
        self._root = _Node(is_leaf=True)
        self._size = 0
        saved = self.stats
        for key, row_keys in entries:
            for row_key in row_keys:
                self.insert(key, row_key)
        self.stats = saved

    def verify(self) -> None:
        previous = None
        for key in self.keys():
            current = sort_key(key)
            if previous is not None and current < previous:
                raise IndexError_(f"index {self.name!r}: keys out of order")
            previous = current


__all__ = ["BPlusTreeIndex"]
