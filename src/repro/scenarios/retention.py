"""Retention invariant checker: is anything more accurate than allowed?

The paper's promise, stated as a checkable invariant: **for every live row and
every degradable attribute, the stored accuracy level is at least the level
the attribute's life cycle policy mandates at the current (simulated) clock.**
A violation means a query — or a forensic attacker — could read data at an
accuracy its retention schedule already forbids.

The checker recomputes the mandated floor from first principles (the policy
automaton's ``level_at`` over ``now - inserted_at``), deliberately *not*
through the scheduler: it cross-checks the entire degradation pipeline
(scheduler, daemon, batch applier, segment waves, recovery catch-up) against
the declarative policy.

A second, byte-level check drives the same invariant down to the forensic
surface: once an attribute's accurate plaintext is past its first transition,
it must no longer be recoverable from heap pages, WAL images or index keys
(:mod:`repro.privacy.forensic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..engine.database import InstantDB
from ..privacy.forensic import scan_engine


@dataclass(frozen=True)
class RetentionViolation:
    """One attribute readable above (more accurate than) its mandated floor."""

    table: str
    row_key: int
    column: str
    stored_level: int
    required_level: int
    elapsed: float

    def describe(self) -> str:
        return (f"{self.table}[row {self.row_key}].{self.column}: stored at "
                f"level {self.stored_level}, policy mandates >= "
                f"{self.required_level} after {self.elapsed / 86400:.2f} days")


def check_engine(db: InstantDB) -> List[RetentionViolation]:
    """Scan every table for attributes lagging their policy's accuracy floor.

    Event-triggered policies have no time-derivable floor and are skipped;
    every scenario policy is timed-only so nothing is skipped here.
    """
    violations: List[RetentionViolation] = []
    now = db.clock.now()
    for info in db.catalog.tables():
        policy = info.policy
        if policy is None or not policy.has_degradable_columns():
            continue
        store = db.stores.get(info.name)
        if store is None:
            continue
        for stored in store.scan():
            tuple_lcp = policy.tuple_lcp_of(stored.values)
            elapsed = max(0.0, now - stored.inserted_at)
            for column, lcp in tuple_lcp.attributes.items():
                if not lcp.timed_only:
                    continue
                required = lcp.level_at(elapsed)
                stored_level = stored.levels.get(column, 0)
                if stored_level < required:
                    violations.append(RetentionViolation(
                        table=info.name, row_key=stored.row_key, column=column,
                        stored_level=stored_level, required_level=required,
                        elapsed=elapsed,
                    ))
    return violations


def forensic_leaks(db: InstantDB, expired_values: Sequence[Any]) -> int:
    """How many of ``expired_values`` are still recoverable from raw bytes.

    ``expired_values`` must be plaintexts unique to rows whose degradation
    deadline has passed (shared values would produce false positives from
    younger rows that legitimately still carry them).
    """
    if not expired_values:
        return 0
    return len(scan_engine(db, list(expired_values)).residual_values)


def expired_employee_salaries(db: InstantDB,
                              salaries: Dict[int, int],
                              grace: float = 0.0,
                              limit: int = 50) -> List[int]:
    """The subset of unique employee salaries already past their exact-level
    deadline at the engine's clock (capped at ``limit`` for scan cost).

    Works from insert timestamps still present in the store; employees whose
    rows were already *removed* outlived their whole policy, so their exact
    salary is expired by definition.
    """
    info = db.catalog.table("employee_records")
    policy = info.policy
    if policy is None:
        return []
    lcp = policy.policy_for("salary")
    first_delay = lcp.entry_times()[1]
    now = db.clock.now()
    live_inserted: Dict[int, float] = {}
    store = db.stores.get("employee_records")
    if store is not None:
        for stored in store.scan():
            employee_id = stored.values.get("id")
            if isinstance(employee_id, int):
                live_inserted[employee_id] = stored.inserted_at
    expired: List[int] = []
    for employee_id, salary in sorted(salaries.items()):
        inserted_at = live_inserted.get(employee_id)
        if inserted_at is None:
            # Row gone: either removed by policy (expired for sure) or never
            # loaded; both ways its plaintext must not be recoverable.
            expired.append(salary)
        elif now - inserted_at > first_delay:
            expired.append(salary)
        if len(expired) >= limit:
            break
    return expired


def retention_report(db: InstantDB,
                     salaries: Optional[Dict[int, int]] = None) -> Dict[str, int]:
    """The checker's two counters, as one comparable dictionary.

    This is what the differential oracle records for a ``forensic`` op: the
    invariant must hold (both zero) on *every* variant, so the dictionaries
    must also be equal across variants.
    """
    violations = check_engine(db)
    leaks = 0
    if salaries:
        leaks = forensic_leaks(db, expired_employee_salaries(db, salaries))
    return {"violations": len(violations), "leaks": leaks}


__all__ = ["RetentionViolation", "check_engine", "forensic_leaks",
           "expired_employee_salaries", "retention_report"]
