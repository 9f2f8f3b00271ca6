"""Table statistics for cost-based planning.

The planner's access-path choice was a fixed preference order (equality index
beats range index beats sequential scan) with zero knowledge of the data.
This module gives it numbers: per table a live row count, per column the
number of distinct values (NDV), min/max, missing count and an exact
value-frequency map — all maintained *incrementally* by the engine's one
fan-out of row changes (``InstantDB._apply_delta``: insert, degradation step,
stable update, removal — and their undo), beside the secondary indexes, so
estimates never require a table scan.

Degradation makes these statistics unusual: a degradation wave is a burst of
value transitions (``on_degrade``) that collapses fine-grained values into
coarse ones, so NDV shrinks and frequencies concentrate as a table ages.  The
planner sees that immediately — a predicate that was selective at collection
accuracy may flip to a sequential scan after the wave made it match half the
table.

Estimates are intentionally exact where exactness is cheap: equality
selectivity reads the frequency map, range selectivity sums it while the NDV
is small (falling back to min/max interpolation above
``EXACT_RANGE_NDV_LIMIT``).  Recovery rebuilds statistics from the recovered
heap during the index-rebuild scan — the WAL cannot replay them, because the
accurate value images degradation scrubbed are gone by design.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.schema import TableSchema
from ..core.values import is_missing, sort_key

#: Above this NDV, range selectivity interpolates min/max instead of summing
#: the frequency map.
EXACT_RANGE_NDV_LIMIT = 4096

#: Equi-width buckets of the lazy numeric histogram backing range estimates
#: on wide-NDV columns (built on first use, invalidated by any modification).
HISTOGRAM_BUCKETS = 64

#: Selectivity assumed for a conjunct the statistics cannot estimate.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Statistics-epoch bump rule: a table's epoch advances once the number of
#: modifications (inserts, removals, value transitions) since the last bump
#: exceeds ``max(EPOCH_MOD_FLOOR, row_count * EPOCH_MOD_FRACTION)``.  Cached
#: plans are keyed on the registry epoch, so a stats shift large enough to
#: change access-path economics (e.g. a degradation wave collapsing NDV)
#: forces a re-plan, while steady-state trickle writes keep plans cached.
EPOCH_MOD_FLOOR = 64
EPOCH_MOD_FRACTION = 0.2


def _stat_key(value: Any) -> Any:
    """Equality-stable surrogate matching the executor's ``=`` semantics
    (case-insensitive strings, numeric cross-type equality)."""
    if isinstance(value, str):
        return value.lower()
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class ColumnStatistics:
    """Frequency map, NDV, min/max and missing count of one column."""

    __slots__ = ("counts", "non_missing", "missing", "_min", "_max", "_dirty",
                 "_hist")

    def __init__(self) -> None:
        self.counts: Dict[Any, int] = {}
        self.non_missing = 0
        self.missing = 0
        #: Cached (sort_key, surrogate) extremes; ``_dirty`` forces a rescan.
        self._min: Optional[Tuple[tuple, Any]] = None
        self._max: Optional[Tuple[tuple, Any]] = None
        self._dirty = False
        #: Lazily built equi-width histogram: (min, max, bucket counts,
        #: total), or ``()`` when the column is not numeric.  ``None`` =
        #: stale (rebuilt on the next wide-NDV range estimate).
        self._hist: Optional[Tuple] = None

    # -- maintenance ----------------------------------------------------------

    def add(self, value: Any, count: int = 1) -> None:
        if is_missing(value):
            self.missing += count
        else:
            self._add(_stat_key(value), count)

    def add_many(self, values: Iterable[Any]) -> None:
        """One row per value enters — a column's share of an inserted batch;
        the state is the one adding them one by one leaves."""
        entering: Dict[Any, int] = {}
        for value in values:
            if is_missing(value):
                self.missing += 1
            else:
                surrogate = _stat_key(value)
                entering[surrogate] = entering.get(surrogate, 0) + 1
        for surrogate, count in entering.items():
            self._add(surrogate, count)

    def _add(self, surrogate: Any, count: int) -> None:
        self.counts[surrogate] = self.counts.get(surrogate, 0) + count
        self.non_missing += count
        self._hist = None
        skey = sort_key(surrogate)
        if self._min is None or skey < self._min[0]:
            self._min = (skey, surrogate)
        if self._max is None or skey > self._max[0]:
            self._max = (skey, surrogate)

    def remove(self, value: Any, count: int = 1) -> None:
        if is_missing(value):
            self.missing = max(0, self.missing - count)
        else:
            self._remove(_stat_key(value), count)

    def remove_many(self, values: Iterable[Any]) -> None:
        """One row per value leaves; the state is the one removing them one
        by one leaves."""
        leaving: Dict[Any, int] = {}
        for value in values:
            if is_missing(value):
                self.missing = max(0, self.missing - 1)
            else:
                surrogate = _stat_key(value)
                leaving[surrogate] = leaving.get(surrogate, 0) + 1
        for surrogate, count in leaving.items():
            self._remove(surrogate, count)

    def _remove(self, surrogate: Any, count: int) -> None:
        held = self.counts.get(surrogate)
        if held is None:
            return
        self.non_missing = max(0, self.non_missing - min(count, held))
        self._hist = None
        if held <= count:
            del self.counts[surrogate]
            # The removed value was an extreme: drop both cached extremes now
            # (a degraded or removed value must not outlive its last row
            # here) and rescan lazily.
            if (self._min is not None and surrogate == self._min[1]) or \
                    (self._max is not None and surrogate == self._max[1]):
                self._min = self._max = None
                self._dirty = True
        else:
            self.counts[surrogate] = held - count

    def replace(self, old: Any, new: Any, count: int = 1) -> None:
        """``count`` rows move from ``old`` to ``new``."""
        self.remove(old, count)
        self.add(new, count)

    # -- introspection --------------------------------------------------------

    @property
    def ndv(self) -> int:
        return len(self.counts)

    def _rescan_extremes(self) -> None:
        self._dirty = False
        self._min = self._max = None
        for surrogate in self.counts:
            skey = sort_key(surrogate)
            if self._min is None or skey < self._min[0]:
                self._min = (skey, surrogate)
            if self._max is None or skey > self._max[0]:
                self._max = (skey, surrogate)

    @property
    def min_value(self) -> Any:
        if self._dirty:
            self._rescan_extremes()
        return self._min[1] if self._min is not None else None

    @property
    def max_value(self) -> Any:
        if self._dirty:
            self._rescan_extremes()
        return self._max[1] if self._max is not None else None

    # -- estimates ------------------------------------------------------------

    def eq_rows(self, value: Any) -> float:
        """Estimated rows matching ``column = value`` (exact frequency)."""
        if is_missing(value):
            return 0.0
        count = self.counts.get(_stat_key(value))
        if count is not None:
            return float(count)
        # Unseen value: almost certainly no rows, but never estimate zero —
        # a zero estimate would make every plan look free.
        return 0.5

    def range_fraction(self, low: Any = None, high: Any = None,
                       include_low: bool = True,
                       include_high: bool = True) -> float:
        """Estimated fraction of non-missing rows inside the range."""
        if not self.non_missing:
            return 0.0
        low_key = sort_key(_stat_key(low)) if low is not None else None
        high_key = sort_key(_stat_key(high)) if high is not None else None
        if self.ndv <= EXACT_RANGE_NDV_LIMIT:
            matched = 0
            for surrogate, count in self.counts.items():
                skey = sort_key(surrogate)
                if low_key is not None:
                    if skey < low_key or (skey == low_key and not include_low):
                        continue
                if high_key is not None:
                    if skey > high_key or (skey == high_key and not include_high):
                        continue
                matched += count
            return matched / self.non_missing
        minimum, maximum = self.min_value, self.max_value
        if isinstance(minimum, float) and isinstance(maximum, float) \
                and maximum > minimum:
            lo = float(low) if isinstance(low, (int, float)) else minimum
            hi = float(high) if isinstance(high, (int, float)) else maximum
            histogram = self._histogram()
            if histogram:
                return self._histogram_fraction(histogram, lo, hi)
            fraction = (min(hi, maximum) - max(lo, minimum)) / (maximum - minimum)
            return min(1.0, max(0.0, fraction))
        return DEFAULT_SELECTIVITY

    # -- histogram (wide-NDV numeric range estimates) --------------------------

    def _histogram(self) -> Tuple:
        """Equi-width bucket counts over the numeric surrogates, built lazily.

        The exact frequency-map sum stops being affordable above
        ``EXACT_RANGE_NDV_LIMIT`` distinct values, and pure min/max
        interpolation assumes a uniform spread — badly wrong for skewed data
        (e.g. a long-tailed timestamp column).  One pass over the frequency
        map buckets it; any modification invalidates the cache.
        """
        if self._hist is None:
            minimum, maximum = self.min_value, self.max_value
            if not (isinstance(minimum, float) and isinstance(maximum, float)
                    and maximum > minimum):
                self._hist = ()
            else:
                buckets = [0] * HISTOGRAM_BUCKETS
                width = (maximum - minimum) / HISTOGRAM_BUCKETS
                total = 0
                for surrogate, count in self.counts.items():
                    if not isinstance(surrogate, float):
                        continue
                    position = min(HISTOGRAM_BUCKETS - 1,
                                   int((surrogate - minimum) / width))
                    buckets[position] += count
                    total += count
                self._hist = (minimum, width, buckets, total) if total else ()
        return self._hist

    def _histogram_fraction(self, histogram: Tuple, lo: float,
                            hi: float) -> float:
        """Fraction of non-missing rows in ``[lo, hi]``: full buckets count
        whole, edge buckets contribute their overlapped share (uniform spread
        assumed only *within* a bucket)."""
        minimum, width, buckets, _total = histogram
        matched = 0.0
        for position, count in enumerate(buckets):
            if not count:
                continue
            bucket_lo = minimum + position * width
            bucket_hi = bucket_lo + width
            overlap = min(hi, bucket_hi) - max(lo, bucket_lo)
            if overlap <= 0:
                continue
            matched += count * min(1.0, overlap / width)
        return min(1.0, max(0.0, matched / self.non_missing))


class TableStatistics:
    """Row count plus per-column statistics of one table."""

    def __init__(self, schema: TableSchema) -> None:
        self.table = schema.name
        self.row_count = 0
        self.columns: Dict[str, ColumnStatistics] = {
            column.name: ColumnStatistics() for column in schema.columns
        }
        #: Monotonic counter bumped when enough modifications accumulated to
        #: shift plan economics; part of the prepared-plan cache key.
        self.epoch = 0
        self._mods_since_epoch = 0

    # -- incremental maintenance ----------------------------------------------

    def _note_mod(self, count: int = 1) -> None:
        """``count`` modifications, one after the other: the epoch advances
        every time the bump rule's threshold is reached."""
        threshold = math.ceil(max(EPOCH_MOD_FLOOR,
                                  self.row_count * EPOCH_MOD_FRACTION))
        first = max(1, threshold - self._mods_since_epoch)  # mods to the next bump
        if count < first:
            self._mods_since_epoch += count
        else:
            bumps, self._mods_since_epoch = divmod(count - first, threshold)
            self.epoch += 1 + bumps

    def _note_rows(self, count: int, step: int) -> None:
        """``count`` rows entering (``step`` 1) or leaving (-1) one after the
        other, each a modification that moves the row count — and with it the
        bump threshold — first: the epoch ends where one-by-one calls of
        :meth:`_note_mod` would leave it, found by bisection per bump."""
        while count:
            start, mods = self.row_count, self._mods_since_epoch

            def bumps(k: int) -> bool:      # does the k-th row reach the threshold?
                rows = max(0, start + step * k)
                return mods + k >= math.ceil(max(EPOCH_MOD_FLOOR, rows * EPOCH_MOD_FRACTION))

            if not bumps(count):
                self.row_count = max(0, start + step * count)
                self._mods_since_epoch += count
                return
            low, high = 1, count
            while low < high:
                middle = (low + high) // 2
                if bumps(middle):
                    high = middle
                else:
                    low = middle + 1
            self.row_count = max(0, start + step * low)
            self.epoch += 1
            self._mods_since_epoch = 0
            count -= low

    def on_insert(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """``rows`` (each a column → value mapping) enter: one update per
        column, the state inserting them one by one would leave."""
        for name, stats in self.columns.items():
            stats.add_many([values.get(name) for values in rows])
        self._note_rows(len(rows), 1)

    def on_remove(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """``rows`` leave — the inverse of :meth:`on_insert`."""
        for name, stats in self.columns.items():
            stats.remove_many([values.get(name) for values in rows])
        self._note_rows(len(rows), -1)

    def on_value_change(self, column: str, old: Any, new: Any,
                        count: int = 1) -> None:
        """``count`` rows making one value transition: a stable update, or
        the rows of a degradation wave that shared both values."""
        stats = self.columns.get(column)
        if stats is not None:
            stats.replace(old, new, count)
            self._note_mod(count)

    def reset(self) -> None:
        self.row_count = 0
        for name in self.columns:
            self.columns[name] = ColumnStatistics()
        # Wholesale replacement (recovery rebuild) invalidates cached plans.
        self.epoch += 1
        self._mods_since_epoch = 0

    # -- estimates ------------------------------------------------------------

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())

    def ndv(self, column: str) -> int:
        stats = self.column(column)
        return stats.ndv if stats is not None else 0

    def estimated_eq_rows(self, column: str, value: Any) -> float:
        stats = self.column(column)
        if stats is None:
            return max(1.0, self.row_count * DEFAULT_SELECTIVITY)
        return min(float(self.row_count), stats.eq_rows(value))

    def estimated_range_rows(self, column: str, low: Any = None,
                             high: Any = None, include_low: bool = True,
                             include_high: bool = True) -> float:
        stats = self.column(column)
        if stats is None:
            return max(1.0, self.row_count * DEFAULT_SELECTIVITY)
        fraction = stats.range_fraction(low, high, include_low, include_high)
        return fraction * stats.non_missing

    def describe(self) -> str:
        lines = [f"statistics for {self.table}: {self.row_count} rows"]
        for name, stats in self.columns.items():
            lines.append(
                f"  {name}: ndv={stats.ndv} missing={stats.missing} "
                f"min={stats.min_value!r} max={stats.max_value!r}"
            )
        return "\n".join(lines)


class StatisticsRegistry:
    """Name → :class:`TableStatistics`; the engine owns one instance and
    attaches it to the catalog so the planner can cost access paths."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableStatistics] = {}
        #: Keeps :meth:`epoch` monotonic across table drops (a dropped table's
        #: accumulated epoch would otherwise vanish from the sum).
        self._epoch_offset = 0

    def register(self, schema: TableSchema) -> TableStatistics:
        stats = TableStatistics(schema)
        self._tables[schema.name] = stats
        return stats

    def drop(self, table: str) -> None:
        dropped = self._tables.pop(table.lower(), None)
        if dropped is not None:
            self._epoch_offset += dropped.epoch + 1

    def epoch(self) -> int:
        """Registry-wide statistics epoch (part of the plan-cache key).

        Monotonically non-decreasing: any table accumulating enough
        modifications — or being dropped — advances it, invalidating every
        plan cached under the previous epoch.
        """
        return self._epoch_offset + sum(stats.epoch
                                        for stats in self._tables.values())

    def table(self, name: str) -> Optional[TableStatistics]:
        return self._tables.get(name.lower())

    def tables(self) -> List[TableStatistics]:
        return list(self._tables.values())

    # -- engine-side maintenance hooks (no-ops for unregistered tables) --------

    def on_insert(self, table: str, rows: Sequence[Mapping[str, Any]]) -> None:
        stats = self._tables.get(table)
        if stats is not None:
            stats.on_insert(rows)

    def on_remove(self, table: str, rows: Sequence[Mapping[str, Any]]) -> None:
        stats = self._tables.get(table)
        if stats is not None:
            stats.on_remove(rows)

    def on_value_change(self, table: str, column: str, old: Any, new: Any,
                        count: int = 1) -> None:
        stats = self._tables.get(table)
        if stats is not None:
            stats.on_value_change(column, old, new, count)


__all__ = ["ColumnStatistics", "TableStatistics", "StatisticsRegistry",
           "DEFAULT_SELECTIVITY", "EXACT_RANGE_NDV_LIMIT", "HISTOGRAM_BUCKETS",
           "EPOCH_MOD_FLOOR", "EPOCH_MOD_FRACTION"]
