"""Server metrics: session/statement counters and statement-latency quantiles.

Latencies go into a fixed-size ring buffer (the last ``capacity`` statement
timings); quantiles are computed over that window on demand.  The window
keeps the cost O(1) per statement and bounds memory no matter how long the
server runs — a serving-layer analogue of the engine's incremental
statistics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class LatencyWindow:
    """Ring buffer of the most recent statement latencies (seconds)."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._samples: List[float] = []
        self._next = 0
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if len(self._samples) < self.capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self.capacity

    def quantile(self, fraction: float) -> Optional[float]:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(0.50)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(0.99)


class ServerMetrics:
    """Counters and gauges exposed over the METRICS frame and Python API."""

    def __init__(self, latency_capacity: int = 4096) -> None:
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_rejected = 0
        self.sessions_reaped = 0
        self.active_sessions = 0
        self.statements = 0
        self.errors = 0
        self.protocol_errors = 0
        self.disconnects_with_open_txn = 0
        self.statement_timeouts = 0
        self.session_close_failures = 0
        self.latency = LatencyWindow(latency_capacity)

    def record_statement(self, seconds: float) -> None:
        self.statements += 1
        self.latency.record(seconds)

    def snapshot(self) -> Dict[str, Any]:
        """A wire-encodable view (floats/ints only; None for empty windows)."""
        return {
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "sessions_rejected": self.sessions_rejected,
            "sessions_reaped": self.sessions_reaped,
            "active_sessions": self.active_sessions,
            "statements": self.statements,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "disconnects_with_open_txn": self.disconnects_with_open_txn,
            "statement_timeouts": self.statement_timeouts,
            "session_close_failures": self.session_close_failures,
            "latency_count": self.latency.count,
            "latency_p50": self.latency.p50,
            "latency_p99": self.latency.p99,
        }


__all__ = ["LatencyWindow", "ServerMetrics"]
