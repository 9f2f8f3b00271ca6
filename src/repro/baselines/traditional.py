"""Traditional (no-degradation) baseline store.

The comparator the paper argues against implicitly: a conventional DBMS that
keeps collected data accurate until somebody explicitly deletes it.  It shares
the row format of the degradation-aware engine so the privacy metrics and the
usability benchmarks can run the same workloads against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class BaselineRow:
    """One stored row with its insertion time."""

    row_key: int
    values: Dict[str, Any]
    inserted_at: float


class TraditionalStore:
    """Keeps every inserted row accurate forever (until explicit delete)."""

    name = "traditional"

    def __init__(self) -> None:
        self._rows: Dict[int, BaselineRow] = {}
        self._next_key = 1
        self.total_inserted = 0

    def insert(self, values: Dict[str, Any], now: float) -> int:
        row_key = self._next_key
        self._next_key += 1
        self._rows[row_key] = BaselineRow(row_key=row_key, values=dict(values),
                                          inserted_at=now)
        self.total_inserted += 1
        return row_key

    def delete(self, row_key: int) -> bool:
        return self._rows.pop(row_key, None) is not None

    def tick(self, now: float) -> int:
        """Advance time; a traditional store never expires anything."""
        return 0

    def rows(self, now: Optional[float] = None) -> List[BaselineRow]:
        return list(self._rows.values())

    def visible_values(self, column: str, now: Optional[float] = None) -> List[Any]:
        return [row.values[column] for row in self._rows.values() if column in row.values]

    def accurate_rows(self, now: Optional[float] = None) -> List[BaselineRow]:
        """Rows whose sensitive attributes are still accurate (all of them here)."""
        return self.rows(now)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def select(self, predicate: Callable[[Dict[str, Any]], bool],
               now: Optional[float] = None) -> List[BaselineRow]:
        return [row for row in self.rows(now) if predicate(row.values)]


__all__ = ["TraditionalStore", "BaselineRow"]
