"""Common index interface and statistics.

Every index maps *keys* (attribute values, possibly degraded) to logical row
keys.  Degradation awareness shows up in two places:

* :meth:`Index.update` — a degradation step changes the indexed key of a row;
  the old key must not survive anywhere in the structure;
* :meth:`Index.raw_image` — a serialization of every key currently held, which
  the forensic scanner greps for residual accurate values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import IndexError_


@dataclass
class IndexStats:
    """Operation counters of one index: maintenance, probes and entries read."""

    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    lookups: int = 0
    range_scans: int = 0
    nodes_visited: int = 0
    entries_scanned: int = 0

    def reset(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.updates = 0
        self.lookups = 0
        self.range_scans = 0
        self.nodes_visited = 0
        self.entries_scanned = 0


class Index:
    """Abstract secondary index mapping keys to row keys."""

    #: Index kind name used in EXPLAIN output and benchmark labels.
    kind: str = "abstract"

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = IndexStats()

    # -- mutation ----------------------------------------------------------
    # ``level`` is the accuracy level the key is stored at: every index takes
    # it, so the engine feeds all kinds through one call, and only a
    # level-partitioned one (:class:`~repro.index.gt_index.GTIndex`) uses it.

    def insert(self, key: Any, row_key: int, level: Optional[int] = None) -> None:
        raise NotImplementedError

    def delete(self, key: Any, row_key: int, level: Optional[int] = None) -> bool:
        """Remove one entry; returns True when the entry existed."""
        raise NotImplementedError

    def insert_many(self, keys: Iterable[Any], row_keys: Iterable[int],
                    levels: Iterable[Optional[int]]) -> None:
        """A batch of entries enters: the state :meth:`insert` of each leaves."""
        for key, row_key, level in zip(keys, row_keys, levels):
            self.insert(key, row_key, level)

    def delete_many(self, keys: Iterable[Any], row_keys: Iterable[int],
                    levels: Iterable[Optional[int]]) -> int:
        """A batch of entries leaves (:meth:`delete` of each); returns how many did."""
        return sum(self.delete(key, row_key, level)
                   for key, row_key, level in zip(keys, row_keys, levels))

    def update(self, old_key: Any, new_key: Any, row_key: int,
               level: Optional[int] = None) -> None:
        """Move ``row_key`` from ``old_key`` to ``new_key`` at one level (a
        stable update; a flat index's share of a degradation step)."""
        removed = self.delete(old_key, row_key, level)
        if not removed:
            raise IndexError_(
                f"index {self.name!r}: cannot update missing entry {old_key!r} -> {row_key}"
            )
        self.insert(new_key, row_key, level)
        self.stats.updates += 1

    def degrade_entries(self, moves: Iterable[Tuple[Any, int, Any, int, int]]) -> int:
        """Apply a wave's ``(old key, old level, new key, new level, row key)``
        moves; returns how many.  A flat index keeps no levels: each move is
        an :meth:`update`."""
        moved = 0
        for old_key, _old_level, new_key, _new_level, row_key in moves:
            self.update(old_key, new_key, row_key)
            moved += 1
        return moved

    # -- queries --------------------------------------------------------------

    def search(self, key: Any) -> List[int]:
        """Row keys whose indexed value equals ``key``."""
        raise NotImplementedError

    def range_search(self, low: Any = None, high: Any = None,
                     include_low: bool = True, include_high: bool = True) -> List[int]:
        """Row keys whose indexed value falls in ``[low, high]`` (ordered indexes only)."""
        raise IndexError_(f"index {self.name!r} ({self.kind}) does not support range scans")

    # -- introspection ----------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def raw_image(self) -> bytes:
        """Serialize every key held by the index (forensic scanning)."""
        parts = []
        for key in self.keys():
            parts.append(repr(key).encode("utf-8", errors="replace"))
        return b"\x00".join(parts)

    def verify(self) -> None:
        """Check structural invariants; raises :class:`IndexError_` on violation."""


__all__ = ["Index", "IndexStats"]
