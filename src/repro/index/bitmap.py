"""Bitmap index.

The paper notes that OLAP workloads rely on "bitmap-like indexes" to speed up
even low-selectivity queries, and that degradation *adds an update load* those
indexes were not designed for.  This implementation keeps one bitmap per
distinct key (a Python integer used as a bit set over row positions), so the
C3 benchmark can measure exactly that trade-off: extremely fast multi-key
scans and AND/OR combinations versus per-update cost that grows with the
number of distinct keys touched by degradation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..core.values import sort_key
from .base import Index


def _hashable(key: Any) -> Any:
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


class BitmapIndex(Index):
    """One bitmap per distinct key over a dense row-position space."""

    kind = "bitmap"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._bitmaps: Dict[Any, int] = {}
        self._display_keys: Dict[Any, Any] = {}
        self._positions: Dict[int, int] = {}      # row_key -> bit position
        self._row_keys: List[Optional[int]] = []  # bit position -> row_key
        self._size = 0

    # -- positions ---------------------------------------------------------

    def _position_of(self, row_key: int) -> int:
        position = self._positions.get(row_key)
        if position is None:
            position = len(self._row_keys)
            self._positions[row_key] = position
            self._row_keys.append(row_key)
        return position

    def _rows_from_bitmap(self, bitmap: int) -> List[int]:
        rows = []
        position = 0
        while bitmap:
            if bitmap & 1:
                row_key = self._row_keys[position]
                if row_key is not None:
                    rows.append(row_key)
            bitmap >>= 1
            position += 1
        return rows

    # -- mutation -------------------------------------------------------------

    def insert(self, key: Any, row_key: int, level: Optional[int] = None) -> None:
        surrogate = _hashable(key)
        position = self._position_of(row_key)
        bitmap = self._bitmaps.get(surrogate, 0)
        bit = 1 << position
        if not bitmap & bit:
            self._bitmaps[surrogate] = bitmap | bit
            self._size += 1
        self._display_keys[surrogate] = key
        self.stats.inserts += 1

    def delete(self, key: Any, row_key: int, level: Optional[int] = None) -> bool:
        surrogate = _hashable(key)
        position = self._positions.get(row_key)
        if position is None:
            return False
        bitmap = self._bitmaps.get(surrogate)
        if bitmap is None:
            return False
        bit = 1 << position
        if not bitmap & bit:
            return False
        bitmap &= ~bit
        if bitmap:
            self._bitmaps[surrogate] = bitmap
        else:
            del self._bitmaps[surrogate]
            del self._display_keys[surrogate]
        self._size -= 1
        self.stats.deletes += 1
        return True

    # -- queries ------------------------------------------------------------------

    def search(self, key: Any) -> List[int]:
        self.stats.lookups += 1
        bitmap = self._bitmaps.get(_hashable(key), 0)
        rows = self._rows_from_bitmap(bitmap)
        self.stats.entries_scanned += len(rows)
        return sorted(rows)

    def search_any(self, keys: List[Any]) -> List[int]:
        """Rows matching any of ``keys`` (bitmap OR)."""
        self.stats.lookups += 1
        combined = 0
        for key in keys:
            combined |= self._bitmaps.get(_hashable(key), 0)
        rows = self._rows_from_bitmap(combined)
        self.stats.entries_scanned += len(rows)
        return sorted(rows)

    def count(self, key: Any) -> int:
        """Cardinality of one key without materializing row keys."""
        self.stats.lookups += 1
        return bin(self._bitmaps.get(_hashable(key), 0)).count("1")

    def distinct_keys(self) -> int:
        return len(self._bitmaps)

    # -- introspection ---------------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        return iter(sorted(self._display_keys.values(), key=sort_key))

    def __len__(self) -> int:
        return self._size


__all__ = ["BitmapIndex"]
