"""YCSB-style mixed-workload driver over the inclusion scenario.

A seeded :class:`OpStream` turns ``(scenario, seed, mix)`` into a
deterministic sequence of operations — point reads, range scans, equi-joins,
aggregates, inserts, status updates, GDPR erasure deletes, forensic scans and
live expiry *waves* (simulated-clock advances that fire degradation inline).
The same stream replays against every engine variant; each op's outcome is
reduced to a transport-independent canonical form so the differential oracle
can compare variants op by op (sentinel identity included).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.values import NULL, REMOVED, SUPPRESSED
from ..workloads.distributions import Distributions
from .generator import InclusionGenerator
from .inclusion import InclusionScenario
from .variants import ScenarioVariant

#: Default op mix (weights are relative, not normalized).
DEFAULT_MIX: Dict[str, float] = {
    "point_read": 0.30,
    "range_scan": 0.14,
    "join": 0.12,
    "aggregate": 0.08,
    "insert": 0.12,
    "update": 0.08,
    "delete": 0.05,
    "wave": 0.08,
    "forensic": 0.03,
}

_STATUSES = ("new", "processing", "accepted", "refused")

#: Wave advances are sampled from this window (seconds): long enough that a
#: couple of hundred ops traverse several policy transitions, short enough
#: that consecutive reads see partially-degraded tables.
WAVE_MIN_S = 6 * 3600.0
WAVE_MAX_S = 2.5 * 86400.0


@dataclass(frozen=True)
class Op:
    """One operation of the stream (pure data; rendering is variant-free)."""

    index: int
    kind: str
    sql: Optional[str] = None
    params: Tuple[Any, ...] = ()
    purpose: Optional[str] = None
    #: Compare results order-sensitively (the query has a total ORDER BY).
    ordered: bool = False
    #: Clock advance in seconds (wave ops only).
    advance: float = 0.0
    #: Tables the op touches (drives trace minimization).
    tables: Tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "wave":
            return f"[{self.index}] wave: advance {self.advance / 3600.0:.1f} h"
        if self.kind == "forensic":
            return f"[{self.index}] forensic scan"
        purpose = f" purpose={self.purpose}" if self.purpose else ""
        params = f" params={self.params!r}" if self.params else ""
        return f"[{self.index}] {self.kind}: {self.sql}{params}{purpose}"


class OpStream:
    """Deterministic op sequence for one ``(scenario, seed, mix)`` triple."""

    def __init__(self, scenario: InclusionScenario, seed: int = 7,
                 mix: Optional[Dict[str, float]] = None,
                 count: int = 200) -> None:
        self.scenario = scenario
        self.seed = seed
        self.count = count
        self.mix = dict(mix or DEFAULT_MIX)
        self.generator = InclusionGenerator(scenario, seed=seed)
        self._kinds = tuple(self.mix)
        self._weights = tuple(self.mix[kind] for kind in self._kinds)

    def ops(self) -> List[Op]:
        dist = Distributions(self.seed * 1009 + 17)
        scenario = self.scenario
        next_app_id = scenario.num_applications + 1
        max_app_id = scenario.num_applications
        ops: List[Op] = []
        for index in range(self.count):
            kind = dist.weighted_choice(self._kinds, self._weights)
            if kind == "point_read":
                ops.append(self._point_read(index, dist, max_app_id))
            elif kind == "range_scan":
                ops.append(self._range_scan(index, dist))
            elif kind == "join":
                ops.append(self._join(index, dist))
            elif kind == "aggregate":
                ops.append(self._aggregate(index, dist))
            elif kind == "insert":
                app_id = next_app_id
                next_app_id += 1
                max_app_id = app_id
                ops.append(self._insert(index, dist, app_id))
            elif kind == "update":
                ops.append(Op(
                    index=index, kind="update",
                    sql="UPDATE job_applications SET status = ? WHERE id = ?",
                    params=(dist.uniform_choice(_STATUSES),
                            dist.uniform_int(1, max_app_id)),
                    tables=("job_applications",),
                ))
            elif kind == "delete":
                ops.append(Op(
                    index=index, kind="delete",
                    sql="DELETE FROM job_applications WHERE id = ?",
                    params=(dist.uniform_int(1, max_app_id),),
                    tables=("job_applications",),
                ))
            elif kind == "wave":
                ops.append(Op(
                    index=index, kind="wave",
                    advance=dist.uniform(WAVE_MIN_S, WAVE_MAX_S),
                    tables=(),
                ))
            else:
                ops.append(Op(index=index, kind="forensic", tables=()))
        return ops

    def epilogue(self, start_index: int) -> List[Op]:
        """Long-horizon tail: two big clock jumps (+30 d, +60 d) that push every
        policy to its terminal state, each followed by read-backs and a
        forensic scan — the oracle then differences full-lifecycle outcomes
        (suppression, physical removal, WAL scrubbing) too."""
        ops: List[Op] = []
        index = start_index
        for days in (30, 60):
            ops.append(Op(index=index, kind="wave", advance=days * 86400.0))
            index += 1
            ops.append(Op(
                index=index, kind="range_scan",
                sql="SELECT id, user_id, salary, address FROM employee_records "
                    "ORDER BY id",
                purpose="statistics", ordered=True,
                tables=("employee_records",)))
            index += 1
            ops.append(Op(
                index=index, kind="aggregate",
                sql="SELECT applicant_address, COUNT(*) AS n "
                    "FROM job_applications GROUP BY applicant_address",
                purpose="statistics",
                tables=("job_applications",)))
            index += 1
            ops.append(Op(
                index=index, kind="aggregate",
                sql="SELECT address, COUNT(*) AS n FROM users GROUP BY address",
                purpose="statistics",
                tables=("users",)))
            index += 1
            ops.append(Op(index=index, kind="forensic"))
            index += 1
        return ops

    # -- op builders ---------------------------------------------------------

    def _point_read(self, index: int, dist: Distributions,
                    max_app_id: int) -> Op:
        roll = dist.uniform(0, 1)
        if roll < 0.45:
            return Op(
                index=index, kind="point_read",
                sql="SELECT id, name, address, health_note FROM users "
                    "WHERE id = ?",
                params=(dist.uniform_int(1, self.scenario.num_users),),
                purpose=dist.uniform_choice(("placement", "casework")),
                tables=("users",),
            )
        if roll < 0.8:
            return Op(
                index=index, kind="point_read",
                sql="SELECT id, user_id, status, applicant_address "
                    "FROM job_applications WHERE id = ?",
                params=(dist.uniform_int(1, max_app_id),),
                purpose="placement",
                tables=("job_applications",),
            )
        return Op(
            index=index, kind="point_read",
            sql="SELECT id, user_id, number, status FROM approvals "
                "WHERE id = ?",
            params=(dist.uniform_int(1, self.scenario.num_approvals),),
            tables=("approvals",),
        )

    def _range_scan(self, index: int, dist: Distributions) -> Op:
        roll = dist.uniform(0, 1)
        if roll < 0.4:
            low = dist.uniform_int(0, 300)
            return Op(
                index=index, kind="range_scan",
                sql="SELECT id, name, signup_day FROM users "
                    "WHERE signup_day >= ? AND signup_day <= ? "
                    "ORDER BY id LIMIT 25",
                params=(low, low + 30),
                purpose="statistics",
                ordered=True,
                tables=("users",),
            )
        if roll < 0.7:
            # Exact-salary band: under the casework purpose rows degraded
            # past the exact level are excluded, so the comparison stays
            # int-vs-int on every variant.
            from .generator import SALARY_BASE, SALARY_STEP
            span = self.scenario.num_employees * SALARY_STEP
            low = SALARY_BASE + dist.uniform_int(0, max(1, span - 200))
            return Op(
                index=index, kind="range_scan",
                sql="SELECT id, user_id, salary FROM employee_records "
                    "WHERE salary >= ? AND salary <= ? ORDER BY id",
                params=(low, low + 200),
                purpose="casework",
                ordered=True,
                tables=("employee_records",),
            )
        low = dist.uniform_int(0, 300)
        return Op(
            index=index, kind="range_scan",
            sql="SELECT id, user_id, status FROM approvals "
                "WHERE granted_day >= ? AND granted_day <= ? ORDER BY id",
            params=(low, low + 45),
            tables=("approvals",),
        )

    def _join(self, index: int, dist: Distributions) -> Op:
        if dist.uniform(0, 1) < 0.6:
            return Op(
                index=index, kind="join",
                sql="SELECT job_applications.id, users.name, users.address "
                    "FROM job_applications JOIN users "
                    "ON job_applications.user_id = users.id "
                    "WHERE job_applications.company_id = ?",
                params=(dist.uniform_int(1, self.scenario.num_companies),),
                purpose="placement",
                tables=("job_applications", "users"),
            )
        return Op(
            index=index, kind="join",
            sql="SELECT employee_records.id, companies.name, "
                "employee_records.address FROM employee_records "
                "JOIN companies "
                "ON employee_records.company_id = companies.id "
                "WHERE companies.id = ?",
            params=(dist.uniform_int(1, self.scenario.num_companies),),
            purpose="statistics",
            tables=("employee_records", "companies"),
        )

    def _aggregate(self, index: int, dist: Distributions) -> Op:
        roll = dist.uniform(0, 1)
        if roll < 0.4:
            return Op(
                index=index, kind="aggregate",
                sql="SELECT status, COUNT(*) AS n FROM job_applications "
                    "GROUP BY status ORDER BY status",
                ordered=True,
                tables=("job_applications",),
            )
        if roll < 0.7:
            return Op(
                index=index, kind="aggregate",
                sql="SELECT address, COUNT(*) AS n FROM users "
                    "GROUP BY address",
                purpose="statistics",
                tables=("users",),
            )
        return Op(
            index=index, kind="aggregate",
            sql="SELECT applicant_address, COUNT(*) AS n "
                "FROM job_applications GROUP BY applicant_address",
            purpose="statistics",
            tables=("job_applications",),
        )

    def _insert(self, index: int, dist: Distributions, app_id: int) -> Op:
        return Op(
            index=index, kind="insert",
            sql="INSERT INTO job_applications "
                "(id, user_id, company_id, status, applicant_address, "
                "applied_day) VALUES (?, ?, ?, ?, ?, ?)",
            params=(app_id,
                    dist.zipf_index(self.scenario.num_users, 0.8) + 1,
                    dist.uniform_int(1, self.scenario.num_companies),
                    "new",
                    self.generator.sample_address(dist),
                    dist.uniform_int(0, 365)),
            tables=("job_applications",),
        )


# ---------------------------------------------------------------------- replay

def canonical_value(value: Any) -> Any:
    """Transport-independent token for one cell value.

    The degradation sentinels are identity singletons on both transports
    (the wire codec round-trips them by identity); canonicalization keeps
    them distinguishable from the equal-looking strings a buggy codec might
    produce instead.
    """
    if value is SUPPRESSED:
        return "\x00SUPPRESSED"
    if value is REMOVED:
        return "\x00REMOVED"
    if value is NULL or value is None:
        return "\x00NULL"
    return value


def canonical_rows(rows: Sequence[Sequence[Any]], ordered: bool) -> List[Tuple[Any, ...]]:
    canonical = [tuple(canonical_value(value) for value in row) for row in rows]
    if not ordered:
        canonical.sort(key=repr)
    return canonical


@dataclass
class OpResult:
    """Canonical outcome of one op on one variant (plus its latency)."""

    kind: str
    payload: Any
    seconds: float = 0.0

    def matches(self, other: "OpResult") -> bool:
        return self.kind == other.kind and self.payload == other.payload


@dataclass
class ReplayReport:
    """Everything one variant produced for one stream."""

    variant: str
    results: List[OpResult] = field(default_factory=list)
    retention_checks: int = 0
    retention_violations: int = 0

    @property
    def latencies(self) -> List[float]:
        return [result.seconds for result in self.results]


def run_op(variant: ScenarioVariant, op: Op,
           salaries: Optional[Dict[int, int]] = None) -> OpResult:
    """Execute one op on one variant and canonicalize the outcome."""
    started = time.perf_counter()
    if op.kind == "wave":
        variant.advance(op.advance)
        payload = {"clock": variant.now(), "steps": variant.steps_applied()}
        return OpResult("wave", payload, time.perf_counter() - started)
    if op.kind == "forensic":
        payload = variant.forensic_report(salaries)
        return OpResult("forensic", payload, time.perf_counter() - started)
    assert op.sql is not None
    cursor = variant.execute(op.sql, op.params, purpose=op.purpose)
    if op.sql.lstrip().upper().startswith("SELECT"):
        rows = cursor.fetchall()
        columns = tuple(d[0] for d in cursor.description) \
            if cursor.description else ()
        variant.commit()
        payload = {"columns": columns,
                   "rows": canonical_rows(rows, op.ordered)}
        return OpResult("rows", payload, time.perf_counter() - started)
    rowcount = cursor.rowcount
    variant.commit()
    return OpResult("rowcount", rowcount, time.perf_counter() - started)


def replay(variant: ScenarioVariant, ops: Sequence[Op],
           salaries: Optional[Dict[int, int]] = None,
           check_retention_on_waves: bool = False) -> ReplayReport:
    """Run a whole stream on one variant.

    With ``check_retention_on_waves`` the retention invariant checker runs
    after every wave op (the armed mode CI uses); violations are counted in
    the report rather than raised, so the caller chooses the failure mode.
    """
    report = ReplayReport(variant=variant.name)
    for op in ops:
        report.results.append(run_op(variant, op, salaries=salaries))
        if check_retention_on_waves and op.kind == "wave":
            report.retention_checks += 1
            report.retention_violations += variant.forensic_report()["violations"]
    return report


__all__ = [
    "Op", "OpStream", "OpResult", "ReplayReport", "DEFAULT_MIX",
    "canonical_value", "canonical_rows", "run_op", "replay",
    "WAVE_MIN_S", "WAVE_MAX_S",
]
