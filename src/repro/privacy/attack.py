"""Attacker models: snapshot attacks, continuous attacks and detectability.

The paper's second claimed benefit: "to be effective, an attack targeting a
database running a data degradation process must be repeated with a frequency
smaller than the duration of the shortest degradation step.  Such continuous
attacks are easily detectable."  This module provides the simulation the B2
benchmark uses to quantify both halves of that claim:

* a **snapshot attacker** compromises the server at one or more instants and
  reads everything currently stored — the accurate data captured is whatever
  is still in its accurate state at those instants;
* a **continuous attacker** repeats snapshots with a fixed period ``p``; the
  fraction of tuples it captures accurately grows as ``p`` shrinks below the
  duration of the first (shortest) degradation step;
* a simple **intrusion-detection model** assigns each snapshot an independent
  detection probability, so repeating the attack often enough to beat
  degradation drives the cumulative detection probability towards one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


@dataclass
class AttackOutcome:
    """Result of simulating one attacker against one population of tuples."""

    total_tuples: int
    captured_accurate: int
    snapshots_taken: int
    detection_probability: float

    @property
    def capture_fraction(self) -> float:
        return self.captured_accurate / self.total_tuples if self.total_tuples else 0.0


def tuples_accurate_at(insert_times: Sequence[float], accurate_lifetime: float,
                       when: float) -> List[int]:
    """Indices of tuples still accurate at ``when``.

    A tuple inserted at ``t`` is accurate during ``[t, t + accurate_lifetime)``.
    """
    return [
        index for index, inserted in enumerate(insert_times)
        if inserted <= when < inserted + accurate_lifetime
    ]


def simulate_snapshot_attack(insert_times: Sequence[float], accurate_lifetime: float,
                             attack_times: Sequence[float],
                             detection_per_snapshot: float = 0.0) -> AttackOutcome:
    """Capture everything accurate at each attack time; union over attacks."""
    captured = set()
    for when in attack_times:
        captured.update(tuples_accurate_at(insert_times, accurate_lifetime, when))
    n = len(attack_times)
    detection = 1.0 - (1.0 - detection_per_snapshot) ** n if n else 0.0
    return AttackOutcome(
        total_tuples=len(insert_times),
        captured_accurate=len(captured),
        snapshots_taken=n,
        detection_probability=detection,
    )


def simulate_periodic_attack(insert_times: Sequence[float], accurate_lifetime: float,
                             period: float, horizon: float,
                             detection_per_snapshot: float = 0.0,
                             first_attack: float = 0.0) -> AttackOutcome:
    """Continuous attacker snapshotting every ``period`` seconds until ``horizon``."""
    attack_times = []
    when = first_attack
    while when <= horizon:
        attack_times.append(when)
        when += period
    return simulate_snapshot_attack(insert_times, accurate_lifetime, attack_times,
                                    detection_per_snapshot)


def capture_fraction_analytic(accurate_lifetime: float, period: float) -> float:
    """Expected fraction of tuples captured accurately by a periodic attacker.

    With uniformly random insertion phases, a tuple accurate for ``L`` seconds
    is seen by an attacker sampling every ``p`` seconds with probability
    ``min(1, L / p)``.
    """
    if period <= 0:
        return 1.0
    return min(1.0, accurate_lifetime / period)


def snapshots_needed(horizon: float, period: float) -> int:
    """Number of snapshots a periodic attacker takes over ``horizon``."""
    if period <= 0:
        return 0
    return int(math.floor(horizon / period)) + 1


def cumulative_detection(detection_per_snapshot: float, snapshots: int) -> float:
    """Probability that at least one of ``snapshots`` independent attacks is detected."""
    detection_per_snapshot = min(max(detection_per_snapshot, 0.0), 1.0)
    return 1.0 - (1.0 - detection_per_snapshot) ** snapshots


@dataclass
class AttackSweepPoint:
    """One point of the B2 sweep: attack period vs capture and detection."""

    period: float
    capture_fraction: float
    capture_fraction_analytic: float
    snapshots: int
    detection_probability: float


def sweep_attack_periods(insert_times: Sequence[float], accurate_lifetime: float,
                         periods: Iterable[float], horizon: float,
                         detection_per_snapshot: float = 0.01) -> List[AttackSweepPoint]:
    """Run the periodic attacker for each period and report capture vs detection."""
    points = []
    for period in periods:
        outcome = simulate_periodic_attack(
            insert_times, accurate_lifetime, period, horizon,
            detection_per_snapshot=detection_per_snapshot,
        )
        points.append(AttackSweepPoint(
            period=period,
            capture_fraction=outcome.capture_fraction,
            capture_fraction_analytic=capture_fraction_analytic(accurate_lifetime, period),
            snapshots=outcome.snapshots_taken,
            detection_probability=outcome.detection_probability,
        ))
    return points


__all__ = [
    "AttackOutcome",
    "AttackSweepPoint",
    "tuples_accurate_at",
    "simulate_snapshot_attack",
    "simulate_periodic_attack",
    "capture_fraction_analytic",
    "snapshots_needed",
    "cumulative_detection",
    "sweep_attack_periods",
]
