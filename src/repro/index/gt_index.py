"""Degradation-aware generalization-tree index.

The paper's third technical challenge asks for "indexing techniques supporting
efficiently degradation".  The :class:`GTIndex` answers it by partitioning
postings along the accuracy levels of the attribute's generalization scheme:

* an entry lives in the bucket ``(level, value)`` of the accuracy level at
  which the value is currently *stored*;
* a degradation step is a cheap bucket-to-bucket move — no tree rebalancing,
  no ordered structure to repair — and bulk steps that degrade every entry of
  a value can merge whole buckets at once;
* a query at demanded accuracy ``k`` probes the bucket ``(k, v)`` directly and
  additionally folds in the buckets of *more accurate* levels whose values
  generalize to ``v`` (the paper's ``f_k`` applied per bucket instead of per
  row), so point queries stay sub-linear regardless of how much of the table
  has already degraded.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.errors import GeneralizationError, IndexError_
from ..core.generalization import GeneralizationScheme
from ..core.values import sort_key
from .base import Index


def _hashable(key: Any) -> Any:
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


class GTIndex(Index):
    """Index partitioned by (accuracy level, value)."""

    kind = "gt"

    def __init__(self, name: str, scheme: GeneralizationScheme) -> None:
        super().__init__(name)
        self.scheme = scheme
        #: level -> value -> set of row keys
        self._buckets: Dict[int, Dict[Any, Set[int]]] = {
            level: {} for level in range(scheme.num_levels)
        }
        self._display_keys: Dict[Tuple[int, Any], Any] = {}
        self._size = 0

    # -- level-aware mutation ----------------------------------------------------

    def insert_at(self, value: Any, level: int, row_key: int) -> None:
        """Insert ``row_key`` under ``value`` stored at accuracy ``level``."""
        if not 0 <= level < self.scheme.num_levels:
            raise IndexError_(f"index {self.name!r}: bad accuracy level {level}")
        surrogate = _hashable(value)
        bucket = self._buckets[level].setdefault(surrogate, set())
        if row_key not in bucket:
            bucket.add(row_key)
            self._size += 1
        self._display_keys[(level, surrogate)] = value
        self.stats.inserts += 1

    def delete_at(self, value: Any, level: int, row_key: int) -> bool:
        surrogate = _hashable(value)
        bucket = self._buckets.get(level, {}).get(surrogate)
        if bucket is None or row_key not in bucket:
            return False
        bucket.discard(row_key)
        if not bucket:
            del self._buckets[level][surrogate]
            self._display_keys.pop((level, surrogate), None)
        self._size -= 1
        self.stats.deletes += 1
        return True

    def degrade_entry(self, old_value: Any, old_level: int, new_value: Any,
                      new_level: int, row_key: int) -> None:
        """Move one posting from its old accuracy bucket to the degraded one
        — :meth:`degrade_entries` with one move."""
        self.degrade_entries([(old_value, old_level, new_value, new_level, row_key)])

    def degrade_entries(self, moves: Iterable[Tuple[Any, int, Any, int, int]]) -> int:
        """Bulk :meth:`degrade_entry`: apply many posting moves in one pass.

        ``moves`` is an iterable of ``(old_value, old_level, new_value,
        new_level, row_key)``.  Moves sharing the same value/level transition
        (the common case: a whole expiry wave degrading one attribute by one
        step) are grouped so each source/target bucket pair is resolved once
        and the postings are merged with one set update.  Returns the number
        of postings moved.
        """
        grouped: Dict[Tuple[Any, int, Any, int], Tuple[Any, int, Any, int, List[int]]] = {}
        for old_value, old_level, new_value, new_level, row_key in moves:
            if new_level < old_level:
                raise IndexError_(
                    f"index {self.name!r}: degradation cannot decrease the level"
                )
            key = (_hashable(old_value), old_level, _hashable(new_value), new_level)
            entry = grouped.get(key)
            if entry is None:
                entry = (old_value, old_level, new_value, new_level, [])
                grouped[key] = entry
            entry[4].append(row_key)
        moved = 0
        for old_value, old_level, new_value, new_level, row_keys in grouped.values():
            surrogate = _hashable(old_value)
            bucket = self._buckets.get(old_level, {}).get(surrogate)
            for row_key in row_keys:
                if bucket is None or row_key not in bucket:
                    raise IndexError_(
                        f"index {self.name!r}: missing entry {old_value!r}@{old_level} "
                        f"for row {row_key}"
                    )
                bucket.discard(row_key)
                self._size -= 1
                self.stats.deletes += 1
            if bucket is not None and not bucket:
                del self._buckets[old_level][surrogate]
                self._display_keys.pop((old_level, surrogate), None)
            new_surrogate = _hashable(new_value)
            target = self._buckets[new_level].setdefault(new_surrogate, set())
            before = len(target)
            target.update(row_keys)
            self._size += len(target) - before
            self._display_keys[(new_level, new_surrogate)] = new_value
            count = len(row_keys)
            self.stats.inserts += count
            self.stats.updates += count
            moved += count
        return moved

    # -- Index interface ----------------------------------------------------------

    def insert(self, key: Any, row_key: int, level: Optional[int] = None) -> None:
        self.insert_at(key, level or 0, row_key)

    def delete(self, key: Any, row_key: int, level: Optional[int] = None) -> bool:
        if level is not None:
            return self.delete_at(key, level, row_key)
        # Callers of the flat interface do not track levels: try every one.
        for level in range(self.scheme.num_levels):
            if self.delete_at(key, level, row_key):
                return True
        return False

    def search(self, key: Any) -> List[int]:
        """Flat search: interpret ``key`` at its natural level when inferable,
        else search level 0."""
        return self.search_at(key, 0)

    # -- accuracy-aware queries -----------------------------------------------------

    def _matching_buckets(self, value: Any,
                          level: int) -> Iterator[Set[int]]:
        """Posting sets matching ``value`` at ``level``: the exact
        ``(level, v)`` bucket plus every finer-stored bucket whose value
        generalizes to it (the paper's query semantics: only rows whose state
        makes level ``k`` computable qualify)."""
        if not 0 <= level < self.scheme.num_levels:
            raise IndexError_(f"index {self.name!r}: bad accuracy level {level}")
        surrogate = _hashable(value)
        exact = self._buckets[level].get(surrogate)
        if exact:
            self.stats.entries_scanned += len(exact)
            yield exact
        for finer_level in range(level):
            for finer_surrogate, bucket in self._buckets[finer_level].items():
                self.stats.nodes_visited += 1
                finer_value = self._display_keys[(finer_level, finer_surrogate)]
                try:
                    generalized = self.scheme.generalize(
                        finer_value, level, from_level=finer_level
                    )
                except GeneralizationError:  # unknown value: cannot generalize, skip
                    continue
                if _hashable(generalized) == surrogate:
                    self.stats.entries_scanned += len(bucket)
                    yield bucket

    def search_at(self, value: Any, level: int) -> List[int]:
        """Rows whose value generalizes to ``value`` at accuracy ``level``."""
        self.stats.lookups += 1
        result: Set[int] = set()
        for bucket in self._matching_buckets(value, level):
            result.update(bucket)
        return sorted(result)

    def level_histogram(self) -> Dict[int, int]:
        """Number of postings per accuracy level (C2/C3 reporting)."""
        return {
            level: sum(len(bucket) for bucket in buckets.values())
            for level, buckets in self._buckets.items()
        }

    def values_at_level(self, level: int) -> List[Any]:
        return [
            self._display_keys[(level, surrogate)]
            for surrogate in self._buckets.get(level, {})
        ]

    # -- introspection --------------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        return iter(sorted(self._display_keys.values(), key=sort_key))

    def __len__(self) -> int:
        return self._size

    def verify(self) -> None:
        total = sum(
            len(bucket) for buckets in self._buckets.values() for bucket in buckets.values()
        )
        if total != self._size:
            raise IndexError_(
                f"index {self.name!r}: size {self._size} does not match postings {total}"
            )


__all__ = ["GTIndex"]
