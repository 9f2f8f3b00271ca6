"""The four workloads: seeded inputs, set-up, the timed section, post-run checks.

Ground rules (README.md has the reasoning):

* default engine only — ``InstantDB(data_dir=<tmp>)`` plus
  ``InclusionScenario(scale).install(db)``, driven through ``repro.connect`` /
  ``repro.client.connect``; no columnar mirror, no legacy ``db.execute``;
* closed loop: every caller waits for its reply; clients <= cores;
* flush policy: engine default (WAL fsync at every commit and every wave) plus
  ``checkpoint(truncate_wal=True)`` where a workload says so;
* op streams and ingest rows come from ``random.Random(seed)`` here; only the
  bulk-load rows come from ``InclusionGenerator(scenario, seed)``;
* every workload does a **fixed amount of work**, scaled linearly from
  ``--seconds`` and sized to take about that long on the 2-core reference
  sandbox: a time-boxed loop would include a different set of degradation
  waves on every run, and neither the step count nor the result digest would
  repeat;
* forensic scans, the retention checker, result verification and the recovery
  check run after the timed section, never inside it.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import repro
import repro.client
from repro import InstantDB
from repro.core.domains import build_location_tree
from repro.core.errors import Error, TransactionAborted
from repro.scenarios.driver import canonical_value
from repro.scenarios.generator import InclusionGenerator, employee_salary
from repro.scenarios.inclusion import InclusionScenario
from repro.scenarios.retention import (
    check_engine,
    expired_employee_salaries,
    forensic_leaks,
)
from repro.server import ServerThread

from . import probes
from .metrics import PER_LAYER, WORKLOADS, percentile, weighted_percentile
from .trace import Tracer, layer_metrics

FLUSH_POLICY = ("engine default: WAL fsync at every commit and every degradation wave; "
                "checkpoint(truncate_wal=True) where the workload says so")

#: ``--seconds`` the default sizes below were calibrated for.
REFERENCE_SECONDS = 10
WARMUP_STATEMENTS = 100
RETRY_CAP = 50
RETRY_SLEEP_S = 0.0005
#: Client 0 times the reference kernel before every this-many of its statements.
SPEED_SAMPLE_EVERY = 10

#: Degradable columns per scenario table (the recovery check compares their
#: level histograms before abandoning the engine and after ``recover()``).
DEGRADABLE = {
    "users": ("address", "health_note"),
    "job_applications": ("applicant_address",),
    "employee_records": ("salary", "address"),
    "companies": (),
    "approvals": (),
}

_PURPOSES = ("casework", "placement", "statistics")
_STATUSES = ("new", "processing", "accepted", "refused")


# ------------------------------------------------------------------ sizes

def default_sizes(workload: str, seconds: float) -> Dict[str, Any]:
    """Row and statement counts of one workload for a ``--seconds`` budget.

    Row counts never scale (they decide which caches fit); statement and
    cycle counts scale linearly with ``seconds``.
    """
    factor = seconds / REFERENCE_SECONDS
    if workload == "oltp_mixed":
        return {"scale": 1000, "clients": 1, "warmup": WARMUP_STATEMENTS,
                "statements": max(50, 25 * round(750 * factor / 25)),
                "tick_every": 25, "horizon_days": 75.0, "checkpoint_every": 250}
    if workload == "scan_analytic":
        return {"scale": 3000, "clients": 1, "warmup": WARMUP_STATEMENTS,
                "statements": max(30, 30 * round(270 * factor / 30)), "preage_days": 10.0}
    if workload == "lifecycle":
        return {"users": 500, "clients": 1, "cycles": max(2, round(12 * factor)),
                "warmup_cycles": 1, "employees_per_cycle": 400,
                "applications_per_cycle": 800, "ticks_per_cycle": 13,
                "cycle_days": 90.0}
    if workload == "remote_mixed":
        return {"scale": 1000, "clients": 2, "warmup": WARMUP_STATEMENTS,
                "statements": max(50, 25 * round(375 * factor / 25)),
                "tick_every": 25, "horizon_days": 75.0}
    raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")


#: Sizes of the smoke test: every code path, a second or two in all.
TINY_SIZES: Dict[str, Dict[str, Any]] = {
    "oltp_mixed": {"scale": 60, "clients": 1, "warmup": 10, "statements": 50,
                   "tick_every": 10, "horizon_days": 75.0, "checkpoint_every": 20},
    "scan_analytic": {"scale": 80, "clients": 1, "warmup": 5, "statements": 30,
                      "preage_days": 10.0},
    "lifecycle": {"users": 30, "clients": 1, "cycles": 2, "warmup_cycles": 1,
                  "employees_per_cycle": 20, "applications_per_cycle": 40,
                  "ticks_per_cycle": 13, "cycle_days": 90.0},
    "remote_mixed": {"scale": 60, "clients": 2, "warmup": 10, "statements": 30,
                     "tick_every": 10, "horizon_days": 75.0},
}


# ------------------------------------------------------------------ inputs

class Op(NamedTuple):
    kind: str                 # point | range | join | group | insert | update | delete
    sql: str
    params: Tuple[Any, ...] = ()
    purpose: Optional[str] = None
    ordered: bool = False

    @property
    def read(self) -> bool:
        return self.kind in ("point", "range", "join", "group", "probe")


_POINT_USERS = "SELECT id, name, address, health_note FROM users WHERE id = ?"
_POINT_APPS = ("SELECT id, user_id, status, applicant_address FROM job_applications "
               "WHERE id = ?")
_POINT_APPROVALS = "SELECT id, user_id, number, status FROM approvals WHERE id = ?"
_POINT_EMPLOYEE = "SELECT id, user_id, company_id, salary FROM employee_records WHERE id = ?"
_RANGE_USERS = ("SELECT id, name, signup_day FROM users "
                "WHERE signup_day >= ? AND signup_day <= ? ORDER BY id")
_RANGE_SALARY = ("SELECT id, user_id, salary FROM employee_records "
                 "WHERE salary >= ? AND salary <= ? ORDER BY id")
_RANGE_APPROVALS = ("SELECT id, user_id, status FROM approvals "
                    "WHERE granted_day >= ? AND granted_day <= ? ORDER BY id")
_RANGE_HIRED = ("SELECT id, salary, address FROM employee_records "
                "WHERE hired_day >= ? AND hired_day <= ? ORDER BY id")
_RANGE_APPLIED = ("SELECT id, status, applicant_address FROM job_applications "
                  "WHERE applied_day >= ? AND applied_day <= ? ORDER BY id")
_JOIN_APPS_USERS = ("SELECT job_applications.id, users.name, users.address "
                    "FROM job_applications JOIN users "
                    "ON job_applications.user_id = users.id "
                    "WHERE job_applications.company_id = ?")
_JOIN_EMP_COMPANIES = ("SELECT employee_records.id, companies.name, "
                       "employee_records.address FROM employee_records "
                       "JOIN companies ON employee_records.company_id = companies.id "
                       "WHERE companies.id = ?")
_GROUP_STATUS = ("SELECT status, COUNT(*) AS n FROM job_applications "
                 "GROUP BY status ORDER BY status")
_GROUP_USER_ADDRESS = "SELECT address, COUNT(*) AS n FROM users GROUP BY address"
_GROUP_APP_ADDRESS = ("SELECT applicant_address, COUNT(*) AS n FROM job_applications "
                      "GROUP BY applicant_address")
_GROUP_SALARY = "SELECT salary, COUNT(*) AS n FROM employee_records GROUP BY salary"
_APP_COLUMNS = ("id", "user_id", "company_id", "status", "applicant_address", "applied_day")
_EMP_COLUMNS = ("id", "user_id", "company_id", "salary", "address", "hired_day")
_INSERT_APP = (f"INSERT INTO job_applications ({', '.join(_APP_COLUMNS)}) "
               "VALUES (?, ?, ?, ?, ?, ?)")
_INSERT_EMP = (f"INSERT INTO employee_records ({', '.join(_EMP_COLUMNS)}) "
               "VALUES (?, ?, ?, ?, ?, ?)")
_UPDATE_APP = "UPDATE job_applications SET status = ? WHERE id = ?"
_DELETE_APP = "DELETE FROM job_applications WHERE id = ?"
_LIMIT = " LIMIT 25"


def user_bytes(row: Sequence[Any]) -> int:
    """Benchmark-defined size of the user values of one row."""
    return sum(len(str(value)) for value in row)


class _Dims(NamedTuple):
    users: int
    companies: int
    approvals: int
    employees: int
    applications: int


def _dims(scenario: InclusionScenario) -> _Dims:
    return _Dims(scenario.num_users, scenario.num_companies, scenario.num_approvals,
                 scenario.num_employees, scenario.num_applications)


def _skewed(rng: random.Random, n: int) -> int:
    """1..n, low numbers favoured (a few users file most applications, a few
    addresses are common)."""
    return int(n * rng.random() ** 2) + 1


def _app_row(rng: random.Random, app_id: int, dims: _Dims,
             addresses: Sequence[str]) -> Tuple[Any, ...]:
    return (app_id, _skewed(rng, dims.users), rng.randint(1, dims.companies), "new",
            addresses[_skewed(rng, len(addresses)) - 1], rng.randint(0, 365))


def _pattern(*weighted: Tuple[int, str, Optional[str]]) -> Tuple[Tuple[str, Optional[str]], ...]:
    """(shape, purpose) repeated by weight, in a fixed interleaved order."""
    entries = [(shape, purpose) for weight, shape, purpose in weighted for _ in range(weight)]
    random.Random(0).shuffle(entries)
    return tuple(entries)


#: The everyday mix, per 100 statements — C7's shapes and purposes: 40 point
#: reads, 10 ``LIMIT 25`` range scans, 5 joins, 5 group-bys, 20 inserts, 12
#: updates, 8 deletes.  Most point reads go to ``job_applications`` so that
#: the median statement sits inside one latency mode (a full decode of that
#: table), not between two.
_MIXED_PATTERN = _pattern(
    (5, "point_users", "placement"), (5, "point_users", "casework"),
    (24, "point_apps", "placement"), (6, "point_approvals", None),
    (4, "range_users", "statistics"), (3, "range_salary", "casework"),
    (3, "range_approvals", None),
    (3, "join_apps_users", "placement"), (2, "join_emp_companies", "statistics"),
    (2, "group_status", None), (2, "group_user_address", "statistics"),
    (1, "group_app_address", "statistics"),
    (20, "insert", None), (12, "update", None), (8, "delete", None),
)

#: Read-only, per 30 statements: 12 range scans (40 %), 9 joins (30 %), 9
#: group-bys over degraded columns (30 %), every shape under each of the
#: three purposes.
_ANALYTIC_PATTERN = _pattern(*(
    (weight, shape, purpose)
    for purpose in _PURPOSES
    for weight, shape in ((1, "range_users"), (1, "range_approvals"), (1, "range_hired"),
                          (1, "range_applied"), (2, "join_apps_users"),
                          (1, "join_emp_companies"), (1, "group_user_address"),
                          (1, "group_app_address"), (1, "group_salary"))))


def _dealt(pattern: Sequence[Tuple[str, Optional[str]]], count: int, rng: random.Random
           ) -> List[Tuple[str, Optional[str]]]:
    """``count`` (shape, purpose) pairs in the pattern's exact proportions
    whatever the seed — the seed decides their order and their parameters, so
    two seeds time the same multiset of statement shapes."""
    entries = [pattern[index % len(pattern)] for index in range(count)]
    rng.shuffle(entries)
    return entries


def mixed_ops(rng: random.Random, dims: _Dims, counts: Sequence[int], first_insert_id: int,
              addresses: Sequence[str]) -> List[Op]:
    """The everyday mix, one dealt segment per entry of ``counts`` (warm-up,
    then the timed section).  A third of the id-addressed ops target a row
    this stream inserted itself (recent keys are favoured)."""
    ops: List[Op] = []
    own: List[int] = []
    next_id = first_insert_id

    def app_id() -> int:
        if own and rng.random() < 0.33:
            return own[rng.randrange(len(own))]
        return rng.randint(1, dims.applications)

    for count in counts:
        for shape, purpose in _dealt(_MIXED_PATTERN, count, rng):
            if shape == "point_users":
                ops.append(Op("point", _POINT_USERS, (rng.randint(1, dims.users),), purpose))
            elif shape == "point_apps":
                ops.append(Op("point", _POINT_APPS, (app_id(),), purpose))
            elif shape == "point_approvals":
                ops.append(Op("point", _POINT_APPROVALS, (rng.randint(1, dims.approvals),)))
            elif shape == "range_users":
                low = rng.randint(0, 300)
                ops.append(Op("range", _RANGE_USERS + _LIMIT, (low, low + 30), purpose, True))
            elif shape == "range_salary":
                low = employee_salary(rng.randint(1, max(1, dims.employees - 12)))
                ops.append(Op("range", _RANGE_SALARY + _LIMIT, (low, low + 200), purpose, True))
            elif shape == "range_approvals":
                low = rng.randint(0, 300)
                ops.append(Op("range", _RANGE_APPROVALS + _LIMIT, (low, low + 45), None, True))
            elif shape == "join_apps_users":
                ops.append(Op("join", _JOIN_APPS_USERS, (rng.randint(1, dims.companies),),
                              purpose))
            elif shape == "join_emp_companies":
                ops.append(Op("join", _JOIN_EMP_COMPANIES, (rng.randint(1, dims.companies),),
                              purpose))
            elif shape == "group_status":
                ops.append(Op("group", _GROUP_STATUS, (), None, True))
            elif shape == "group_user_address":
                ops.append(Op("group", _GROUP_USER_ADDRESS, (), purpose))
            elif shape == "group_app_address":
                ops.append(Op("group", _GROUP_APP_ADDRESS, (), purpose))
            elif shape == "insert":
                ops.append(Op("insert", _INSERT_APP, _app_row(rng, next_id, dims, addresses)))
                own.append(next_id)
                next_id += 1
            elif shape == "update":
                ops.append(Op("update", _UPDATE_APP, (rng.choice(_STATUSES), app_id())))
            else:
                ops.append(Op("delete", _DELETE_APP, (app_id(),)))
    return ops


_ANALYTIC_SQL = {
    "range_users": _RANGE_USERS, "range_approvals": _RANGE_APPROVALS,
    "range_hired": _RANGE_HIRED, "range_applied": _RANGE_APPLIED,
    "join_apps_users": _JOIN_APPS_USERS, "join_emp_companies": _JOIN_EMP_COMPANIES,
    "group_user_address": _GROUP_USER_ADDRESS, "group_app_address": _GROUP_APP_ADDRESS,
    "group_salary": _GROUP_SALARY,
}


def analytic_ops(rng: random.Random, dims: _Dims, counts: Sequence[int]) -> List[Op]:
    """Read-only statements, one dealt segment per entry of ``counts``."""
    ops: List[Op] = []
    for count in counts:
        for shape, purpose in _dealt(_ANALYTIC_PATTERN, count, rng):
            sql = _ANALYTIC_SQL[shape]
            if shape.startswith("range"):
                low = rng.randint(0, 335)
                ops.append(Op("range", sql, (low, low + 30), purpose, True))
            elif shape.startswith("join"):
                ops.append(Op("join", sql, (rng.randint(1, dims.companies),), purpose))
            else:
                ops.append(Op("group", sql, (), purpose))
    return ops


class Inputs:
    """Everything a workload feeds the engine, a pure function of (sizes, seed)."""

    def __init__(self, workload: str, sizes: Dict[str, Any], seed: int) -> None:
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        addresses = list(build_location_tree().values_at_level(0) or ())
        self.scenario = InclusionScenario(sizes.get("scale", sizes.get("users", 1)))
        #: executemany batches of the bulk load, in FK-safe order.
        self.load = list(InclusionGenerator(self.scenario, seed).batches(500))
        #: per-client op streams (warm-up statements first).
        self.streams: List[List[Op]] = []
        #: lifecycle only: per cycle, (employee rows, application rows, the
        #: employee row probed after each tick).
        self.cycles: List[Tuple[List[Tuple[Any, ...]], ...]] = []
        dims = _dims(self.scenario)
        if workload == "lifecycle":
            # companies + users only; the cycles bring their own rows
            self.load = [batch for batch in self.load
                         if batch.table in ("companies", "users")]
            rng = random.Random(seed * 7919 + 3)
            total = sizes["warmup_cycles"] + sizes["cycles"]
            next_emp, next_app = 1, 1
            for _ in range(total):
                employees = [
                    (next_emp + i, rng.randint(1, dims.users), rng.randint(1, dims.companies),
                     employee_salary(next_emp + i),
                     addresses[_skewed(rng, len(addresses)) - 1], rng.randint(0, 365))
                    for i in range(sizes["employees_per_cycle"])]
                next_emp += len(employees)
                applications = [_app_row(rng, next_app + i, dims, addresses)
                                for i in range(sizes["applications_per_cycle"])]
                next_app += len(applications)
                probed = [rng.choice(employees) for _ in range(sizes["ticks_per_cycle"])]
                self.cycles.append((employees, applications, probed))
        elif workload == "scan_analytic":
            rng = random.Random(seed * 7919 + 2)
            self.streams = [analytic_ops(rng, dims, (sizes["warmup"], sizes["statements"]))]
        else:
            for client in range(sizes["clients"]):
                rng = random.Random(seed * 7919 + 11 * client + 1)
                first = dims.applications + 1 + client * 1_000_000
                self.streams.append(mixed_ops(
                    rng, dims, (sizes["warmup"], sizes["statements"]), first, addresses))
        self.digest = self._digest()

    def _digest(self) -> str:
        sha = hashlib.sha256()
        for batch in self.load:
            sha.update(repr((batch.table, batch.rows)).encode())
        sha.update(repr(self.streams).encode())
        sha.update(repr(self.cycles).encode())
        return sha.hexdigest()

    def loaded_rows(self, table: str) -> List[Tuple[Any, ...]]:
        return [row for batch in self.load if batch.table == table for row in batch.rows]


# ------------------------------------------------------------------ set-up

class Context:
    """One built engine: what the timed section and the checks run against."""

    def __init__(self, db: InstantDB, data_dir: str, meter: probes.SpeedMeter) -> None:
        self.db = db
        self.data_dir = data_dir
        self.meter = meter
        self.server: Optional[ServerThread] = None
        self.connections: List[Any] = []

    def tick(self, hours: float) -> None:
        if self.server is not None:
            self.server.submit(functools.partial(self.db.advance_time, hours=hours))
        else:
            self.db.advance_time(hours=hours)

    def checkpoint(self) -> None:
        if self.server is not None:
            self.server.submit(functools.partial(self.db.checkpoint, truncate_wal=True))
        else:
            self.db.checkpoint(truncate_wal=True)

    def stop_serving(self) -> None:
        for connection in self.connections:
            try:
                connection.close()
            except Error:
                pass  # the server is going away either way
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def discard(self) -> None:
        """Clean shutdown of an engine no further number is taken from."""
        self.stop_serving()
        self.db.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def set_up(inputs: Inputs, work_dir: str, meter: probes.SpeedMeter
           ) -> Tuple[Context, Tuple[float, float]]:
    """Engine build + schema install + bulk load + pre-ageing; returns the
    context and when set-up started and ended."""
    sizes = inputs.sizes
    data_dir = tempfile.mkdtemp(prefix=inputs.workload + "-", dir=work_dir)
    meter.sample()
    started = time.perf_counter()
    db = InstantDB(data_dir=data_dir)
    inputs.scenario.install(db)
    context = Context(db, data_dir, meter)
    loader = repro.connect(engine=db)
    for batch in inputs.load:
        loader.cursor().executemany(batch.insert_sql, batch.rows)
        loader.commit()
        meter.sample()
    loader.close()
    for _ in range(int(sizes.get("preage_days", 0) * 2)):
        db.advance_time(hours=12)
        meter.sample()
    if inputs.workload == "remote_mixed":
        context.server = ServerThread(db).start()
        host, port = context.server.address
        context.connections = [repro.client.connect(host, port)
                               for _ in range(sizes["clients"])]
    else:
        context.connections = [repro.connect(engine=db)]
    ended = time.perf_counter()
    meter.sample()
    return context, (started, ended)


# ------------------------------------------------------------------ timed section

class Recorder:
    """Samples of one pass over the timed section (one per client thread,
    merged afterwards)."""

    def __init__(self) -> None:
        # every interval is (started, ended) on time.perf_counter
        self.statements: List[Tuple[str, float, float]] = []   # (kind, started, ended)
        self.outputs: List[Any] = []                      # rows or rowcount, per statement
        self.ticks: List[Tuple[float, float, int]] = []   # (started, ended, steps applied)
        self.checkpoints: List[Tuple[float, float]] = []
        self.ingest: List[Tuple[float, float, int]] = []  # (started, ended, rows)
        self.failed = 0
        self.retries = 0

    def merge(self, other: "Recorder") -> None:
        self.statements += other.statements
        self.ticks += other.ticks
        self.checkpoints += other.checkpoints
        self.ingest += other.ingest
        self.failed += other.failed
        self.retries += other.retries


def _statement(connection: Any, cursor: Any, op: Op, recorder: Recorder,
               retry: bool) -> None:
    """execute → fetchall → commit, timed as one statement; on a server
    conflict: rollback, short sleep, retry (the wait is part of the latency)."""
    started = time.perf_counter()
    attempts = 0
    output: Any = None
    while True:
        try:
            cursor.execute(op.sql, op.params, purpose=op.purpose)
            output = cursor.fetchall() if op.read else cursor.rowcount
            connection.commit()
            break
        except TransactionAborted:
            connection.rollback()
            attempts += 1
            if not retry or attempts > RETRY_CAP:
                recorder.failed += 1
                output = None
                break
            recorder.retries += 1
            time.sleep(RETRY_SLEEP_S)
        except Error:
            connection.rollback()
            recorder.failed += 1
            output = None
            break
    recorder.statements.append((op.kind, started, time.perf_counter()))
    recorder.outputs.append(output)


def _tick(context: Context, hours: float, recorder: Recorder) -> None:
    before = probes.steps_applied(context.db)
    started = time.perf_counter()
    context.tick(hours)
    ended = time.perf_counter()
    recorder.ticks.append((started, ended, probes.steps_applied(context.db) - before))
    context.meter.sample()


def _checkpoint(context: Context, recorder: Recorder) -> None:
    started = time.perf_counter()
    context.checkpoint()
    recorder.checkpoints.append((started, time.perf_counter()))
    context.meter.sample()


def _drive_stream(context: Context, connection: Any, ops: Sequence[Op], first_index: int,
                  sizes: Dict[str, Any], tick_hours: float, recorder: Recorder,
                  tracer: Optional[Tracer], ticking: bool, retry: bool) -> None:
    """One client's statements; the ``ticking`` client (client 0) also advances
    the simulated clock, takes the checkpoints and samples the machine's speed."""
    cursor = connection.cursor()
    tick_every = sizes.get("tick_every", 0)
    checkpoint_every = sizes.get("checkpoint_every", 0)
    for offset, op in enumerate(ops):
        index = first_index + offset
        if ticking and offset % SPEED_SAMPLE_EVERY == 0:
            context.meter.sample()
        if tracer is not None:
            tracer.set_op(("s", index))
        _statement(connection, cursor, op, recorder, retry)
        done = index + 1
        if ticking and tick_every and done % tick_every == 0:
            if tracer is not None:
                tracer.set_op(("t", done // tick_every))
            _tick(context, tick_hours, recorder)
        if ticking and checkpoint_every and done % checkpoint_every == 0:
            if tracer is not None:
                tracer.set_op(("c", done // checkpoint_every))
            _checkpoint(context, recorder)
    cursor.close()


class Pass(NamedTuple):
    recorder: Recorder
    span: Tuple[float, float]       # when the timed section started and ended
    write_bytes: Optional[int]      # Δ wchar over the timed section
    counters: Dict[str, Any]        # engine counters read around the timed section
    outputs: List[List[Any]]        # per client: the output of every statement, warm-up first


def _wall(timed: Pass) -> float:
    return timed.span[1] - timed.span[0]


def _net_applications(ops: Sequence[Op], outputs: Sequence[Any]) -> int:
    """Inserts that landed minus deletes that matched, by the engine's own rowcounts."""
    return sum((op.kind == "insert") - (op.kind == "delete")
               for op, output in zip(ops, outputs)
               if op.kind in ("insert", "delete") and output == 1)


def _counters(db: InstantDB) -> Dict[str, Any]:
    return {"wal_bytes": probes.wal_bytes_written(db),
            "buffer": probes.buffer_hits_misses(db),
            "statements": probes.statement_cache_hits_misses(db)}


def _timed_section(context: Context, tracer: Optional[Tracer], body: Callable[[], None]
                   ) -> Tuple[Tuple[float, float], Optional[int], Dict[str, Any]]:
    """Run ``body`` as the timed section: ((started, ended), Δ wchar, counters)."""
    before = _counters(context.db)
    context.meter.sample()
    if tracer is not None:
        tracer.start()
    write_start = probes.process_write_bytes()
    started = time.perf_counter()
    body()
    ended = time.perf_counter()
    write_end = probes.process_write_bytes()
    if tracer is not None:
        tracer.stop()
    context.meter.sample()
    written = None if write_start is None or write_end is None else write_end - write_start
    return (started, ended), written, {"before": before, "after": _counters(context.db)}


def drive(inputs: Inputs, context: Context, tracer: Optional[Tracer] = None) -> Pass:
    """Warm-up, then the timed section of one workload."""
    sizes = inputs.sizes
    if inputs.workload == "lifecycle":
        return _drive_lifecycle(inputs, context, tracer)
    warmup = sizes["warmup"]
    tick_hours = 0.0
    if sizes.get("tick_every"):
        ticks = (warmup + sizes["statements"]) // sizes["tick_every"]
        tick_hours = sizes["horizon_days"] * 24.0 / ticks
    retry = context.server is not None

    def run(client: int, first: int, last: int, into: Recorder) -> None:
        _drive_stream(context, context.connections[client],
                      inputs.streams[client][first:last], first, sizes, tick_hours,
                      into, tracer, ticking=(client == 0), retry=retry)

    def run_all(first: int, last: int, recorders: List[Recorder]) -> None:
        if len(recorders) == 1:
            run(0, first, last, recorders[0])
            return
        failures: List[BaseException] = []

        def guarded(client: int) -> None:
            try:
                run(client, first, last, recorders[client])
            except BaseException as exc:  # re-raised on the driver thread below
                failures.append(exc)

        threads = [threading.Thread(target=guarded, args=(client,), name=f"client-{client}")
                   for client in range(len(recorders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    clients = sizes["clients"]
    warm = [Recorder() for _ in range(clients)]
    run_all(0, warmup, warm)
    recorders = [Recorder() for _ in range(clients)]
    span, written, counters = _timed_section(
        context, tracer, lambda: run_all(warmup, warmup + sizes["statements"], recorders))
    outputs = [warm[client].outputs + recorders[client].outputs for client in range(clients)]
    recorder = recorders[0]
    for other in recorders[1:]:
        recorder.merge(other)
    return Pass(recorder, span, written, counters, outputs)


def _drive_lifecycle(inputs: Inputs, context: Context, tracer: Optional[Tracer]) -> Pass:
    sizes = inputs.sizes
    recorder = Recorder()
    connection = context.connections[0]
    cursor = connection.cursor()
    tick_hours = sizes["cycle_days"] * 24.0 / sizes["ticks_per_cycle"]

    def cycle(number: int, into: Recorder) -> None:
        employees, applications, probed = inputs.cycles[number]
        for label, sql, rows in (("emp", _INSERT_EMP, employees),
                                 ("app", _INSERT_APP, applications)):
            if tracer is not None:
                tracer.set_op(("b", number, label))
            context.meter.sample()
            started = time.perf_counter()
            cursor.executemany(sql, rows)
            connection.commit()
            ended = time.perf_counter()
            into.statements.append(("bulk", started, ended))
            into.outputs.append(cursor.rowcount)
            into.ingest.append((started, ended, len(rows)))
        for tick, row in enumerate(probed):
            if tracer is not None:
                tracer.set_op(("t", number, tick))
            _tick(context, tick_hours, into)
            # employee_records holds one cycle's rows at a time (the policy
            # removes them), so the probe stays a small read however long the run
            if tracer is not None:
                tracer.set_op(("s", number, tick))
            _statement(connection, cursor, Op("probe", _POINT_EMPLOYEE, (row[0],), "statistics"),
                       into, retry=False)
        if tracer is not None:
            tracer.set_op(("c", number))
        _checkpoint(context, into)

    warmup = sizes["warmup_cycles"]
    warm = Recorder()
    for number in range(warmup):
        cycle(number, warm)

    def timed_cycles() -> None:
        for number in range(warmup, warmup + sizes["cycles"]):
            cycle(number, recorder)

    span, written, counters = _timed_section(context, tracer, timed_cycles)
    cursor.close()
    return Pass(recorder, span, written, counters, [warm.outputs + recorder.outputs])


# ------------------------------------------------------------------ results: digest + verification

def result_digest(inputs: Inputs, timed: "Pass") -> str:
    """sha256 over the canonical result of every timed statement (sentinels
    by identity) and the step count of every tick (single-client workloads)."""
    ops = timed_ops(inputs)
    sha = hashlib.sha256()
    for op, output in zip(ops, timed.outputs[0][-len(ops):]):
        if isinstance(output, list):
            rows = [tuple(canonical_value(value) for value in row) for row in output]
            if not op.ordered:
                rows.sort(key=repr)
            sha.update(repr(rows).encode())
        else:
            sha.update(repr(output).encode())
    sha.update(repr([steps for _started, _ended, steps in timed.recorder.ticks]).encode())
    return sha.hexdigest()


def timed_ops(inputs: Inputs) -> List[Op]:
    """The statements of client 0's timed section, in execution order."""
    sizes = inputs.sizes
    if inputs.workload == "lifecycle":
        ops: List[Op] = []
        for _ in range(sizes["cycles"]):
            ops += [Op("bulk", _INSERT_EMP), Op("bulk", _INSERT_APP)]
            ops += [Op("probe", _POINT_EMPLOYEE, (), "statistics")] * sizes["ticks_per_cycle"]
        return ops
    return inputs.streams[0][sizes["warmup"]:]


def wrong_answers(inputs: Inputs, outputs: Sequence[Sequence[Any]]) -> int:
    """Timed statements whose output contradicts a model of the stable columns.

    Whether a row is *visible* depends on how far its degradable columns have
    degraded against the purpose, which only the engine knows — so the model
    follows the engine's own rowcounts and checks consistency: a row that is
    returned carries the stable values last written to it, nothing is returned
    or matched that was never inserted or is already deleted, ordered results
    are ordered, limits hold, counts never exceed what exists.  Rows wrongly
    *missing* are caught by the pinned ``result_digest`` and the final
    ``job_applications`` count.  With two clients the model is not replayed
    (the interleaving is unknown); only the shape of each answer is checked.
    """
    sizes = inputs.sizes
    wrong = 0
    if inputs.workload == "lifecycle":
        per_cycle = 2 + sizes["ticks_per_cycle"]
        stream = iter(outputs[0])
        for number, (employees, applications, probed) in enumerate(inputs.cycles):
            got = [next(stream) for _ in range(per_cycle)]
            if number < sizes["warmup_cycles"]:
                continue
            wrong += got[0] != len(employees)
            wrong += got[1] != len(applications)
            for row, rows in zip(probed, got[2:]):
                wrong += not (isinstance(rows, list) and len(rows) <= 1 and all(
                    tuple(r[:3]) == tuple(row[:3]) for r in rows))
        return wrong

    users = {row[0]: row for row in inputs.loaded_rows("users")}
    approvals = {row[0]: row for row in inputs.loaded_rows("approvals")}
    single = sizes["clients"] == 1
    model = {row[0]: [row[1], row[3]] for row in inputs.loaded_rows("job_applications")}
    for stream, results in zip(inputs.streams, outputs):
        for index, (op, got) in enumerate(zip(stream, results)):
            if got is None:
                continue  # a failed op, counted as such already
            bad = False
            if op.kind == "insert":
                bad = got != 1
                model[op.params[0]] = [op.params[1], op.params[3]]
            elif op.kind in ("update", "delete"):
                key = op.params[-1]
                bad = got not in (0, 1) or (single and got == 1 and key not in model)
                if got == 1 and op.kind == "delete":
                    model.pop(key, None)
                elif got == 1 and key in model:
                    model[key][1] = op.params[0]
            elif not isinstance(got, list):
                bad = True
            elif op.kind == "point":
                key = op.params[0]
                if op.sql == _POINT_APPROVALS:   # no degradable column: always visible
                    bad = [tuple(row) for row in got] != [
                        (key, approvals[key][1], approvals[key][2], approvals[key][4])]
                elif op.sql == _POINT_USERS:
                    bad = len(got) > 1 or any(tuple(row[:2]) != users[key][:2] for row in got)
                else:
                    bad = len(got) > 1 or (single and any(
                        key not in model or [row[1], row[2]] != model[key] for row in got))
            elif op.kind == "range":
                ids = [row[0] for row in got]
                bad = ids != sorted(ids) or (op.sql.endswith(_LIMIT) and len(got) > 25)
            elif op.kind == "group" and op.sql == _GROUP_STATUS and single:
                counts = Counter(status for _user, status in model.values())
                bad = any(n > counts.get(status, 0) for status, n in got)
            wrong += bad and index >= sizes["warmup"]
    return wrong


# ------------------------------------------------------------------ post-run checks

def _table_state(db: InstantDB) -> Dict[str, Any]:
    return {table: {"rows": db.row_count(table),
                    "levels": {column: dict(db.level_histogram(table, column))
                               for column in columns}}
            for table, columns in DEGRADABLE.items()}


def post_checks(inputs: Inputs, context: Context) -> Dict[str, Any]:
    """Retention, forensic, recovery and space checks; consumes the context.

    Order matters: the recovery check replays the un-checkpointed WAL tail the
    timed section left, and only then the final checkpoint is taken for the
    space metric.
    """
    context.stop_serving()
    db = context.db
    # a wave that collided with a client's open transaction is retried one
    # simulated second later; with the clients gone, let the last one land
    db.advance_time(seconds=2.0)
    checks: Dict[str, Any] = {}
    checks["retention_violations"] = len(check_engine(db))
    salaries = {row[0]: row[3] for row in inputs.loaded_rows("employee_records")}
    for employees, _applications, _probed in inputs.cycles:
        salaries.update((row[0], row[3]) for row in employees)
    checks["forensic_leaks"] = forensic_leaks(db, expired_employee_salaries(db, salaries))
    checks["job_applications"] = db.row_count("job_applications")
    state = _table_state(db)
    # abandon the engine without close(): nothing it has not already flushed
    # may be needed to come back
    context.db = db = None  # type: ignore[assignment]
    gc.collect()
    started = time.perf_counter()
    reopened = InstantDB(data_dir=context.data_dir)
    reopened.recover()
    checks["recover_s"] = time.perf_counter() - started
    checks["recovery_equal"] = _table_state(reopened) == state
    reopened.checkpoint(truncate_wal=True)
    stored = probes.dir_bytes(context.data_dir)
    # user bytes of the rows still live: which rows a purpose lets a query see
    # is the engine's business, so per table it is rows alive (row_count)
    # times the mean user bytes of the rows ever put into that table
    put_in: Dict[str, List[int]] = {table: [0, 0] for table in DEGRADABLE}

    def account(table: str, rows: Sequence[Sequence[Any]]) -> None:
        put_in[table][0] += len(rows)
        put_in[table][1] += sum(user_bytes(row) for row in rows)

    for batch in inputs.load:
        account(batch.table, batch.rows)
    for employees, applications, _probed in inputs.cycles:
        account("employee_records", employees)
        account("job_applications", applications)
    for stream in inputs.streams:
        account("job_applications", [op.params for op in stream if op.kind == "insert"])
    live_bytes = sum(reopened.row_count(table) * total / rows
                     for table, (rows, total) in put_in.items() if rows)
    checks["stored_bytes"] = stored
    checks["live_user_bytes"] = live_bytes
    reopened.close()
    shutil.rmtree(context.data_dir, ignore_errors=True)
    return checks


# ------------------------------------------------------------------ metrics of one pass

def end_to_end_metrics(inputs: Inputs, timed: Pass, meter: probes.SpeedMeter,
                       setups: Sequence[Tuple[float, float]], checks: Dict[str, Any],
                       wrong: int) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Every end-to-end metric that applies to this workload, and the sample
    count behind each timing.

    Every time is in **nominal seconds** (``SpeedMeter.nominal_seconds``: the
    clock's reading divided by the machine's slowdown in the same half second)
    — the sandbox's speed moves by a third within a run and between runs.  The
    ``raw_*`` metrics are four of them as the clock read them.
    """
    recorder = timed.recorder
    nominal = meter.nominal_seconds
    metrics: Dict[str, float] = {}
    samples: Dict[str, int] = {}

    def put(name: str, value: float, count: int) -> None:
        metrics[name] = value
        samples[name] = count

    def latencies_ms(*kinds: str) -> Tuple[List[float], List[float]]:
        """(nominal, raw) latencies of the timed statements of these kinds (all if none)."""
        chosen = [(started, ended) for kind, started, ended in recorder.statements
                  if not kinds or kind in kinds]
        return ([1000.0 * nominal(started, ended) for started, ended in chosen],
                [1000.0 * (ended - started) for started, ended in chosen])

    put("raw_setup_s", statistics.median(ended - started for started, ended in setups),
        len(setups))
    put("setup_s", statistics.median(nominal(*setup) for setup in setups), len(setups))
    put("machine_slowdown", meter.slowdown(*timed.span), 1)
    latencies, raw_latencies = latencies_ms()
    put("raw_stmt_per_s", len(latencies) / _wall(timed), len(latencies))
    put("stmt_per_s", len(latencies) / nominal(*timed.span), len(latencies))
    put("raw_stmt_p50_ms", percentile(raw_latencies, 0.50), len(latencies))
    put("stmt_p50_ms", percentile(latencies, 0.50), len(latencies))
    put("stmt_p95_ms", percentile(latencies, 0.95), len(latencies))
    if inputs.workload != "lifecycle":   # 15 statements per cycle: too few beyond a p99
        put("stmt_p99_ms", percentile(latencies, 0.99), len(latencies))
    reads, raw_reads = latencies_ms("point", "range", "join", "group", "probe")
    put("raw_read_p50_ms", percentile(raw_reads, 0.50), len(reads))
    put("read_p50_ms", percentile(reads, 0.50), len(reads))
    # INSERT and UPDATE/DELETE are two latency modes (the latter match their
    # row by a scan first); one median over both would sit between them
    writes, _raw = latencies_ms("insert")
    if writes:
        put("write_p50_ms", percentile(writes, 0.50), len(writes))
    modifies, _raw = latencies_ms("update", "delete")
    if modifies:
        put("modify_p50_ms", percentile(modifies, 0.50), len(modifies))
    if recorder.ingest:
        rows = sum(count for _started, _ended, count in recorder.ingest)
        put("ingest_rows_per_s",
            rows / sum(nominal(started, ended) for started, ended, _c in recorder.ingest), rows)
    steps = sum(count for _started, _ended, count in recorder.ticks)
    if steps:
        ticks = [(nominal(started, ended), count) for started, ended, count in recorder.ticks]
        put("degrade_steps_per_s", steps / sum(seconds for seconds, _count in ticks), steps)
        lag = [(1000.0 * seconds, count) for seconds, count in ticks]
        put("retention_lag_p50_ms", weighted_percentile(lag, 0.50), steps)
        put("retention_lag_p99_ms", weighted_percentile(lag, 0.99), steps)
    inserted = sum(user_bytes(op.params) for stream in inputs.streams
                   for op in stream[inputs.sizes.get("warmup", 0):] if op.kind == "insert")
    warm = inputs.sizes.get("warmup_cycles", 0)
    inserted += sum(user_bytes(row) for employees, applications, _probed in inputs.cycles[warm:]
                    for row in employees + applications)
    if inserted and timed.write_bytes is not None and inputs.sizes["clients"] == 1:
        put("bytes_written_per_user_byte", timed.write_bytes / inserted, inserted)
    put("space_per_user_byte", checks["stored_bytes"] / checks["live_user_bytes"],
        round(checks["live_user_bytes"]))
    put("peak_rss_mb", probes.peak_rss_mb(), 1)
    attempted = len(recorder.statements)
    put("failed_ops_share", (recorder.failed + wrong) / attempted, attempted)
    return metrics, samples


# ------------------------------------------------------------------ one workload, start to finish

def _enough_setups(setups: Sequence[float]) -> bool:
    """At least three samples for the median; cheap set-ups get up to nine."""
    return len(setups) >= 3 and (sum(setups) >= 3.0 or len(setups) >= 9)


def run_workload(workload: str, seed: int, seconds: float, trace: bool = False,
                 sizes: Optional[Dict[str, Any]] = None, work_root: Optional[str] = None,
                 pins: Optional[Dict[str, Any]] = None,
                 trace_dump: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload in this process and return its full report.

    Untraced: several set-ups (``setup_s`` is their median), the timed section
    on the last, then the checks.  Traced: one untraced pass, then the same
    seeded inputs again under the tracer — the per-layer numbers, and
    ``trace.overhead_share`` from the two walls.
    """
    sizes = dict(sizes or default_sizes(workload, seconds))
    inputs = Inputs(workload, sizes, seed)
    if work_root is None:
        work_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return _run_workload(inputs, trace, work_dir, pins, trace_dump)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run's scratch is still there


def _run_workload(inputs: Inputs, trace: bool, work_dir: str,
                  pins: Optional[Dict[str, Any]], trace_dump: Optional[str]
                  ) -> Dict[str, Any]:
    workload, sizes = inputs.workload, inputs.sizes
    single = sizes["clients"] == 1
    meter = probes.SpeedMeter()
    setups: List[Tuple[float, float]] = []      # (started, ended)
    context: Optional[Context] = None
    while True:
        if context is not None:
            context.discard()
            context = None
            gc.collect()
        context, setup = set_up(inputs, work_dir, meter)
        setups.append(setup)
        if trace or _enough_setups([ended - started for started, ended in setups]):
            break
    timed = drive(inputs, context)
    server_metrics = context.server.metrics() if context.server is not None else None
    checks = post_checks(inputs, context)
    wrong = wrong_answers(inputs, timed.outputs)
    metrics, samples = end_to_end_metrics(inputs, timed, meter, setups, checks, wrong)
    steps = sum(count for _started, _ended, count in timed.recorder.ticks)
    digests: Dict[str, Any] = {"input_digest": inputs.digest}
    if single:
        digests["result_digest"] = result_digest(inputs, timed)
        digests["degrade_steps"] = steps
    problems = _problems(inputs, timed, checks, wrong, digests, pins)
    report: Dict[str, Any] = {
        "workload": workload, "seed": inputs.seed, "sizes": sizes,
        "metrics": metrics, "samples": samples, "digests": digests,
        "checks": {key: checks[key] for key in
                   ("retention_violations", "forensic_leaks", "recovery_equal", "recover_s")},
        "attempted": len(timed.recorder.statements),
        "failed": timed.recorder.failed + wrong,
        "timed_wall_s": _wall(timed),
    }
    if trace:
        layers, unresolved = _traced_pass(inputs, work_dir, meter, timed, digests, problems,
                                          trace_dump)
        layers["txn.aborts_retried"] = float(timed.recorder.retries)
        layers["txn.recovery.recover_s"] = checks["recover_s"]
        layers["txn.recovery.equal"] = float(checks["recovery_equal"])
        if server_metrics is not None and server_metrics.get("latency_p50") is not None:
            server_p50 = 1000.0 * server_metrics["latency_p50"]
            layers["server.session.exec_p50_ms"] = server_p50
            layers["server.session.queue_wait_p50_ms"] = metrics["raw_stmt_p50_ms"] - server_p50
        applies = {metric.name: metric.applies for metric in PER_LAYER}
        report["layers"] = {name: value for name, value in layers.items()
                            if workload in applies.get(name, WORKLOADS)}
        report["unresolved"] = unresolved
    report["problems"] = problems
    # Reported, not fatal: at this commit recover() loses a degradation step on
    # some seeds (README, first findings).  txn.recovery.equal carries it; the
    # run stays usable as a measurement until the engine is fixed.
    report["warnings"] = [] if checks["recovery_equal"] else [
        "row counts / level histograms differ after recover() (txn.recovery.equal = 0)"]
    report["correct"] = not problems
    return report


def _problems(inputs: Inputs, timed: Pass, checks: Dict[str, Any], wrong: int,
              digests: Dict[str, Any], pins: Optional[Dict[str, Any]]) -> List[str]:
    problems: List[str] = []
    if checks["retention_violations"]:
        problems.append(f"{checks['retention_violations']} retention violations "
                        "after the last tick")
    if checks["forensic_leaks"]:
        problems.append(f"{checks['forensic_leaks']} expired salaries still "
                        "recoverable from raw bytes")
    if wrong:
        problems.append(f"{wrong} statements returned a wrong answer")
    if timed.recorder.failed:
        problems.append(f"{timed.recorder.failed} statements failed")
    if inputs.cycles:
        net = sum(len(applications) for _employees, applications, _probed in inputs.cycles)
    else:
        net = sum(_net_applications(stream, outputs)
                  for stream, outputs in zip(inputs.streams, timed.outputs))
    expected = len(inputs.loaded_rows("job_applications")) + net
    if checks["job_applications"] != expected:
        problems.append(f"job_applications holds {checks['job_applications']} rows, expected "
                        f"{expected} (loaded + inserts - matched deletes)")
    pin = (pins or {}).get(inputs.workload)
    if pin and pin.get("seed") == inputs.seed and pin.get("sizes") == inputs.sizes:
        for key in ("input_digest", "result_digest", "degrade_steps"):
            if key in pin and key in digests and pin[key] != digests[key]:
                problems.append(f"{key} {digests[key]} differs from the pinned {pin[key]}")
    return problems


def _traced_pass(inputs: Inputs, work_dir: str, meter: probes.SpeedMeter, untraced: Pass,
                 digests: Dict[str, Any], problems: List[str], trace_dump: Optional[str]
                 ) -> Tuple[Dict[str, float], List[str]]:
    """The same inputs again with every wrap-table target wrapped."""
    tracer = Tracer().install()
    try:
        context, _setup = set_up(inputs, work_dir, meter)
        timed = drive(inputs, context, tracer)
        layers = layer_metrics(tracer)
        counters = timed.counters
        wal_before, wal_after = counters["before"]["wal_bytes"], counters["after"]["wal_bytes"]
        if wal_before is not None and wal_after is not None:
            layers["storage.wal.bytes_written"] = float(wal_after - wal_before)
        for name, key in (("storage.buffer.hit_share", "buffer"),
                          ("query.parser.cache_hit_share", "statements")):
            value = probes.share(counters["before"][key], counters["after"][key])
            if value is not None:
                layers[name] = value
        recorder = timed.recorder
        if "client.roundtrips" in layers:
            layers["client.roundtrips_per_stmt"] = \
                layers.pop("client.roundtrips") / len(recorder.statements)
        covered = sum(ended - started for _kind, started, ended in recorder.statements) \
            + sum(ended - started for started, ended, _steps in recorder.ticks) \
            + sum(ended - started for started, ended in recorder.checkpoints)
        driver_threads = ["MainThread"] + [f"client-{i}" for i in range(inputs.sizes["clients"])]
        layers["trace.coverage_share"] = tracer.self_seconds(driver_threads) / covered
        layers["trace.overhead_share"] = _wall(timed) / _wall(untraced) - 1.0
        layers["trace.unresolved"] = float(len(tracer.unresolved))
        if inputs.sizes["clients"] == 1 and \
                result_digest(inputs, timed) != digests["result_digest"]:
            problems.append("the traced pass gave different answers than the untraced pass")
        if trace_dump is not None:
            tracer.dump(trace_dump, inputs.workload)
        context.discard()
    finally:
        tracer.restore()
    return layers, list(tracer.unresolved)
