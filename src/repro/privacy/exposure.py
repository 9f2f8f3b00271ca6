"""Exposure metrics: how much accurate personal data is at risk, and for how long.

The paper's first claimed benefit is that "the amount of accurate personal
information exposed to disclosure ... is always less than with a traditional
data retention principle".  This module quantifies that claim with two
complementary metrics, both used by the B1 benchmark:

* **snapshot exposure** — at an attack instant ``t``, how many tuples are
  visible at (or below) a given accuracy level;
* **exposure volume** ("accurate tuple-seconds") — the integral over time of
  the number of tuples stored at (or below) a given accuracy level, i.e. the
  area an attacker could harvest by watching the store continuously.

Both empirical versions (inspecting a live :class:`~repro.engine.InstantDB`)
and analytic versions (closed form from arrival rate and policy delays) are
provided so benchmarks can cross check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.errors import ConfigurationError
from ..core.lcp import NEVER, AttributeLCP


@dataclass
class ExposureSnapshot:
    """Exposure of one store at one instant."""

    time: float
    total_rows: int
    rows_at_or_below_level: Dict[int, int]

    def exposed(self, level: int = 0) -> int:
        """Rows observable at accuracy ``level`` or better."""
        return self.rows_at_or_below_level.get(level, 0)

    def exposed_fraction(self, level: int = 0) -> float:
        if self.total_rows == 0:
            return 0.0
        return self.exposed(level) / self.total_rows


def snapshot_from_histogram(time: float, histogram: Dict[int, int]) -> ExposureSnapshot:
    """Build a snapshot from a per-level row histogram (cumulative from level 0)."""
    total = sum(histogram.values())
    cumulative: Dict[int, int] = {}
    running = 0
    for level in sorted(histogram):
        running += histogram[level]
        cumulative[level] = running
    # Fill gaps so every level up to the max has a cumulative count.
    filled: Dict[int, int] = {}
    running = 0
    max_level = max(histogram) if histogram else 0
    for level in range(max_level + 1):
        running += histogram.get(level, 0)
        filled[level] = running
    return ExposureSnapshot(time=time, total_rows=total, rows_at_or_below_level=filled)


def engine_snapshot(db, table: str, column: str, time: Optional[float] = None) -> ExposureSnapshot:
    """Snapshot exposure of ``table.column`` in a live :class:`InstantDB`."""
    when = db.now() if time is None else time
    histogram = db.level_histogram(table, column)
    return snapshot_from_histogram(when, histogram)


@dataclass
class ExposureTimeline:
    """Sequence of snapshots plus integrated exposure volume."""

    snapshots: List[ExposureSnapshot]

    def volume(self, level: int = 0) -> float:
        """Integral of exposed rows over time (trapezoid rule), in row-seconds."""
        if len(self.snapshots) < 2:
            return 0.0
        total = 0.0
        for previous, current in zip(self.snapshots, self.snapshots[1:]):
            dt = current.time - previous.time
            total += dt * (previous.exposed(level) + current.exposed(level)) / 2.0
        return total

    def peak(self, level: int = 0) -> int:
        return max((snap.exposed(level) for snap in self.snapshots), default=0)

    def times(self) -> List[float]:
        return [snap.time for snap in self.snapshots]


# -- analytic model -------------------------------------------------------------------


def accurate_lifetime_of_policy(policy: AttributeLCP) -> float:
    """Time a value spends at accuracy level 0 under ``policy`` (its first delay)."""
    first = policy.transitions[0]
    if not first.timed:
        return NEVER
    return float(first.delay)


def steady_state_exposure(arrival_rate: float, accurate_lifetime: float) -> float:
    """Little's-law estimate of rows accurate at any instant.

    ``arrival_rate`` is tuples per second; the expected number of tuples
    simultaneously in the accurate state is ``rate * lifetime``.
    """
    if arrival_rate < 0:
        raise ConfigurationError("arrival rate cannot be negative")
    if accurate_lifetime == NEVER:
        return float("inf")
    return arrival_rate * accurate_lifetime


def exposure_volume_analytic(num_tuples: int, accurate_lifetime: float) -> float:
    """Total accurate tuple-seconds accumulated by ``num_tuples`` insertions."""
    if accurate_lifetime == NEVER:
        return float("inf")
    return num_tuples * accurate_lifetime


def retention_vs_degradation_ratio(retention_limit: float,
                                   policy: AttributeLCP) -> float:
    """How much longer a tuple stays accurate under limited retention than under
    the degradation policy (the headline ratio of benchmark B1)."""
    lifetime = accurate_lifetime_of_policy(policy)
    if lifetime == 0:
        return float("inf")
    if lifetime == NEVER:
        return 0.0
    return retention_limit / lifetime


def level_exposure_profile(policy: AttributeLCP) -> List[Dict[str, float]]:
    """Per accuracy level: entry offset and residence time under ``policy``.

    Used to report the full degradation staircase, not only level 0.
    """
    entries = policy.entry_times()
    profile = []
    for index, level in enumerate(policy.states):
        entered = entries[index]
        left = entries[index + 1] if index + 1 < len(entries) else NEVER
        residence = NEVER if NEVER in (entered, left) else left - entered
        profile.append({
            "state": index,
            "level": level,
            "level_name": policy.scheme.level_name(level),
            "entered_at": entered,
            "residence": residence,
        })
    return profile


__all__ = [
    "ExposureSnapshot",
    "ExposureTimeline",
    "snapshot_from_histogram",
    "engine_snapshot",
    "accurate_lifetime_of_policy",
    "steady_state_exposure",
    "exposure_volume_analytic",
    "retention_vs_degradation_ratio",
    "level_exposure_profile",
]
