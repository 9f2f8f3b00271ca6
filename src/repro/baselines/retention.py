"""Limited-retention baseline (all-or-nothing TTL).

The paper's main point of comparison: attach a retention limit to every tuple;
before the limit the tuple is fully accurate, after the limit it is withdrawn
entirely.  The store below implements exactly that, on the same row format as
:class:`~repro.baselines.traditional.TraditionalStore`, and exposes the same
inspection hooks used by the exposure and usability benchmarks (B1, B3).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.errors import ConfigurationError
from .traditional import BaselineRow, TraditionalStore


class LimitedRetentionStore(TraditionalStore):
    """Keeps rows accurate for ``retention_limit`` seconds, then deletes them."""

    name = "limited_retention"

    def __init__(self, retention_limit: float) -> None:
        super().__init__()
        if retention_limit <= 0:
            raise ConfigurationError("retention limit must be positive")
        self.retention_limit = float(retention_limit)
        self.expired_count = 0

    def tick(self, now: float) -> int:
        """Withdraw every row older than the retention limit.  Returns the count."""
        victims = [
            row_key for row_key, row in self._rows.items()
            if now - row.inserted_at >= self.retention_limit
        ]
        for row_key in victims:
            del self._rows[row_key]
        self.expired_count += len(victims)
        return len(victims)

    def rows(self, now: Optional[float] = None) -> List[BaselineRow]:
        if now is not None:
            self.tick(now)
        return super().rows(now)

    def accurate_rows(self, now: Optional[float] = None) -> List[BaselineRow]:
        """Every surviving row is fully accurate (all-or-nothing retention)."""
        return self.rows(now)

    def accurate_lifetime(self) -> float:
        """Time a tuple spends fully accurate — the whole retention window."""
        return self.retention_limit


__all__ = ["LimitedRetentionStore"]
