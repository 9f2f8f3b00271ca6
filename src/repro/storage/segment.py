"""Columnar segments: an SoA mirror of a table's heap for vectorized execution.

The heap (``degradable_store.TableStore``) stays the single authoritative,
durable copy of every row — irreversibility is still enforced by rewriting
heap pages and scrubbing the log.  A :class:`SegmentSet` is an *acceleration
structure* layered on top: the same rows held column-wise (structure of
arrays) in fixed-size segments of :data:`SEGMENT_ROWS` rows, with

* one **value vector** per column (already-decoded Python values, so scans
  pay zero record decode),
* one **accuracy-level vector** per degradable column, kept *separate* from
  the payload vector — a degradation wave touches the level vector and the
  affected value vector of a chunk, nothing else, and
* per-segment **zone maps** (min/max under the engine's total value order
  plus a missing-value count) that let scans skip whole segments.

Sentinels (``SUPPRESSED`` / ``REMOVED`` / ``NULL``) are stored in the vectors
by identity — they round-trip through a segment untouched, and zone maps
count them as missing instead of folding them into min/max (a comparison
predicate can never match a missing value, so a segment whose column is all
missing is provably empty for that predicate).

Maintenance is O(1) per mutation: the store calls the ``on_*`` hooks from
every code path that changes a row (insert, stable update, degradation,
removal, recovery restore).  Deleted rows leave a dead slot (``live`` flag
cleared) until the set is rebuilt; zone maps widen monotonically and are
re-tightened only on rebuild.  After a crash the engine rebuilds every
segment set from the recovered heap, so segments never need their own
durability, and a degradation wave reaches them through the same
``on_value_change`` hook as any other mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.schema import TableSchema
from ..core.values import is_missing, sort_key

#: Rows per segment — the batch size vectorized operators work in.
SEGMENT_ROWS = 1024


class ZoneMap:
    """Min/max/missing-count summary of one column within one segment.

    ``low``/``high`` are :func:`sort_key` surrogates (the engine's total
    order), kept alongside the raw values for EXPLAIN/debugging.  Bounds only
    ever widen; removals and in-place narrowing updates leave them
    conservatively wide, which can cost a false "may contain" but never a
    wrong prune.
    """

    __slots__ = ("low", "high", "low_value", "high_value", "missing")

    def __init__(self) -> None:
        self.low: Optional[tuple] = None
        self.high: Optional[tuple] = None
        self.low_value: Any = None
        self.high_value: Any = None
        self.missing = 0

    def observe(self, value: Any) -> None:
        if is_missing(value):
            self.missing += 1
            return
        key = sort_key(value)
        if self.low is None or key < self.low:
            self.low = key
            self.low_value = value
        if self.high is None or key > self.high:
            self.high = key
            self.high_value = value

    def forget_missing(self) -> None:
        if self.missing > 0:
            self.missing -= 1

    # -- pruning ---------------------------------------------------------------

    def may_match_eq(self, key: tuple) -> bool:
        return self.low is not None and self.low <= key <= self.high

    def may_match_range(self, low: Optional[tuple], high: Optional[tuple],
                        include_low: bool, include_high: bool) -> bool:
        """Can any non-missing value fall inside ``[low, high]``?"""
        if self.low is None:
            return False
        if low is not None:
            if self.high < low or (self.high == low and not include_low):
                return False
        if high is not None:
            if self.low > high or (self.low == high and not include_high):
                return False
        return True


@dataclass
class SegmentSetStats:
    """Counters proving the columnar paths actually ran (bench assertions)."""

    inserts: int = 0
    removes: int = 0
    value_changes: int = 0
    #: Whole segments skipped by zone-map pruning during scans.
    segments_pruned: int = 0
    rebuilds: int = 0


class Segment:
    """One fixed-capacity chunk of rows in column-major layout."""

    __slots__ = ("segment_id", "row_keys", "inserted_at", "live", "live_count",
                 "values", "levels", "zones")

    def __init__(self, segment_id: int, columns: Iterable[str],
                 degradable: Iterable[str]) -> None:
        self.segment_id = segment_id
        self.row_keys: List[int] = []
        self.inserted_at: List[float] = []
        self.live: List[bool] = []
        self.live_count = 0
        self.values: Dict[str, List[Any]] = {name: [] for name in columns}
        self.levels: Dict[str, List[int]] = {name: [] for name in degradable}
        self.zones: Dict[str, ZoneMap] = {name: ZoneMap() for name in self.values}

    def __len__(self) -> int:
        return len(self.row_keys)

    @property
    def full(self) -> bool:
        return len(self.row_keys) >= SEGMENT_ROWS

    def append(self, row_key: int, inserted_at: float,
               values: Dict[str, Any], levels: Dict[str, int]) -> int:
        position = len(self.row_keys)
        self.row_keys.append(row_key)
        self.inserted_at.append(inserted_at)
        self.live.append(True)
        self.live_count += 1
        for name, vector in self.values.items():
            value = values.get(name)
            vector.append(value)
            self.zones[name].observe(value)
        for name, vector in self.levels.items():
            vector.append(levels.get(name, 0))
        return position

    def live_positions(self) -> List[int]:
        if self.live_count == len(self.live):
            return list(range(len(self.live)))
        return [i for i, alive in enumerate(self.live) if alive]


class SegmentSet:
    """All segments of one table plus the row-key → slot directory."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.column_names: Tuple[str, ...] = tuple(schema.column_names())
        self.degradable_names: Tuple[str, ...] = tuple(
            column.name for column in schema.degradable_columns())
        self.segments: List[Segment] = []
        self.stats = SegmentSetStats()
        self._directory: Dict[int, Tuple[Segment, int]] = {}

    def __len__(self) -> int:
        return len(self._directory)

    def __contains__(self, row_key: int) -> bool:
        return row_key in self._directory

    def locate(self, row_key: int) -> Optional[Tuple[Segment, int]]:
        return self._directory.get(row_key)

    # -- maintenance hooks (called by TableStore on every mutation) ------------

    def on_insert(self, row_key: int, inserted_at: float,
                  values: Dict[str, Any], levels: Dict[str, int]) -> None:
        if row_key in self._directory:
            self.on_remove(row_key)
        if not self.segments or self.segments[-1].full:
            self.segments.append(Segment(len(self.segments),
                                         self.column_names,
                                         self.degradable_names))
        segment = self.segments[-1]
        position = segment.append(row_key, inserted_at, values, levels)
        self._directory[row_key] = (segment, position)
        self.stats.inserts += 1

    def on_value_change(self, row_key: int, column: str, value: Any,
                        level: Optional[int] = None) -> None:
        slot = self._directory.get(row_key)
        if slot is None:
            return
        segment, position = slot
        old = segment.values[column][position]
        segment.values[column][position] = value
        zone = segment.zones[column]
        if is_missing(old) and not is_missing(value):
            zone.forget_missing()
        zone.observe(value)
        if level is not None and column in segment.levels:
            segment.levels[column][position] = level
        self.stats.value_changes += 1

    def on_remove(self, row_key: int) -> None:
        slot = self._directory.pop(row_key, None)
        if slot is None:
            return
        segment, position = slot
        if segment.live[position]:
            segment.live[position] = False
            segment.live_count -= 1
        self.stats.removes += 1

    # -- rebuild ---------------------------------------------------------------

    def clear(self) -> None:
        self.segments = []
        self._directory = {}

    def rebuild(self, rows: Iterable[Any]) -> None:
        """Repopulate from stored rows (``StoredRow``-shaped objects) — the
        recovery path: segments are derived state, the heap is the truth."""
        self.clear()
        for row in rows:
            self.on_insert(row.row_key, row.inserted_at, row.values, row.levels)
        self.stats.rebuilds += 1


__all__ = ["SEGMENT_ROWS", "Segment", "SegmentSet", "SegmentSetStats", "ZoneMap"]
