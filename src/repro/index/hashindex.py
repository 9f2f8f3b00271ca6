"""Hash index: equality-only lookups in O(1).

The hash index is the cheapest structure for the point lookups of an OLTP
workload.  The engine gives every table that declares a ``PRIMARY KEY`` one on
that column (``pk_<table>``, attached in
:meth:`~repro.engine.database.InstantDB._attach_recovered_table`, never
persisted in the catalog), which is what serves ``WHERE id = ?`` in SELECT,
UPDATE and DELETE; ``CREATE INDEX ... USING hash`` declares further ones, and
it is a baseline in the C3 index comparison.  Duplicate keys are supported —
the engine does not enforce primary-key uniqueness.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set

from ..core.values import sort_key
from .base import Index


def _hashable(key: Any) -> Any:
    """Map a key to a hashable, equality-stable surrogate."""
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


class HashIndex(Index):
    """Dictionary-backed equality index with duplicate support."""

    kind = "hash"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._buckets: Dict[Any, Set[int]] = {}
        self._display_keys: Dict[Any, Any] = {}
        self._size = 0

    def insert(self, key: Any, row_key: int, level: Optional[int] = None) -> None:
        surrogate = _hashable(key)
        bucket = self._buckets.setdefault(surrogate, set())
        if row_key not in bucket:
            bucket.add(row_key)
            self._size += 1
        self._display_keys[surrogate] = key
        self.stats.inserts += 1

    def delete(self, key: Any, row_key: int, level: Optional[int] = None) -> bool:
        surrogate = _hashable(key)
        bucket = self._buckets.get(surrogate)
        if bucket is None or row_key not in bucket:
            return False
        bucket.discard(row_key)
        self._size -= 1
        if not bucket:
            del self._buckets[surrogate]
            del self._display_keys[surrogate]
        self.stats.deletes += 1
        return True

    def search(self, key: Any) -> List[int]:
        self.stats.lookups += 1
        bucket = self._buckets.get(_hashable(key), set())
        self.stats.entries_scanned += len(bucket)
        return sorted(bucket)

    def keys(self) -> Iterator[Any]:
        return iter(sorted(self._display_keys.values(), key=sort_key))

    def __len__(self) -> int:
        return self._size


__all__ = ["HashIndex"]
