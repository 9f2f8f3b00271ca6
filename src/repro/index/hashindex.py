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

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Union

from ..core.values import sort_key
from .base import Index


#: Key types that are their own surrogate: the batch loops skip :func:`_hashable`.
_PLAIN = frozenset({int, float, str, bool, type(None)})


def _hashable(key: Any) -> Any:
    """Map a key to a hashable, equality-stable surrogate."""
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


class HashIndex(Index):
    """Dictionary-backed equality index with duplicate support.

    A key's bucket is its one row key as a plain ``int``; it becomes a set
    when a second row shares the key and goes back to the ``int`` when one
    row is left, so a unique key costs one dictionary entry.  A key that is
    not hashable is held under its ``repr`` (:func:`_hashable`), and only
    such keys have an entry in ``_display_keys`` (surrogate → the key):
    :meth:`keys` hands back the keys as inserted."""

    kind = "hash"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._buckets: Dict[Any, Union[int, Set[int]]] = {}
        self._display_keys: Dict[Any, Any] = {}
        self._size = 0

    def insert(self, key: Any, row_key: int, level: Optional[int] = None) -> None:
        self.insert_many((key,), (row_key,), (level,))

    def delete(self, key: Any, row_key: int, level: Optional[int] = None) -> bool:
        return self.delete_many((key,), (row_key,), (level,)) == 1

    def insert_many(self, keys: Iterable[Any], row_keys: Iterable[int],
                    levels: Iterable[Optional[int]]) -> None:
        buckets, display, size, count = self._buckets, self._display_keys, self._size, 0
        for count, (key, row_key) in enumerate(zip(keys, row_keys), 1):
            surrogate = key if type(key) in _PLAIN else _hashable(key)
            if surrogate is not key:
                display[surrogate] = key
            bucket = buckets.get(surrogate)
            if bucket is None:
                buckets[surrogate] = row_key
            elif type(bucket) is int:
                if bucket == row_key:
                    continue
                buckets[surrogate] = {bucket, row_key}
            elif row_key in bucket:
                continue
            else:
                bucket.add(row_key)
            size += 1
        self._size = size
        self.stats.inserts += count

    def delete_many(self, keys: Iterable[Any], row_keys: Iterable[int],
                    levels: Iterable[Optional[int]]) -> int:
        buckets, display, removed = self._buckets, self._display_keys, 0
        for key, row_key in zip(keys, row_keys):
            surrogate = key if type(key) in _PLAIN else _hashable(key)
            bucket = buckets.get(surrogate)
            if bucket is None:
                continue
            if type(bucket) is int:
                if bucket != row_key:
                    continue
                del buckets[surrogate]
                if display:
                    display.pop(surrogate, None)
            elif row_key in bucket:
                bucket.discard(row_key)
                if len(bucket) == 1:
                    buckets[surrogate] = bucket.pop()
            else:
                continue
            removed += 1
        self._size -= removed
        self.stats.deletes += removed
        return removed

    def search(self, key: Any) -> List[int]:
        self.stats.lookups += 1
        bucket = self._buckets.get(_hashable(key))
        if bucket is None:
            return []
        if type(bucket) is int:
            self.stats.entries_scanned += 1
            return [bucket]
        self.stats.entries_scanned += len(bucket)
        return sorted(bucket)

    def keys(self) -> Iterator[Any]:
        display = self._display_keys
        return iter(sorted((display.get(surrogate, surrogate) for surrogate in self._buckets),
                           key=sort_key))

    def __len__(self) -> int:
        return self._size


__all__ = ["HashIndex"]
