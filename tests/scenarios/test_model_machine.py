"""The embedded engine against the reference model, as a hypothesis state machine.

One serial connection drives the engine (``ScenarioVariant("compiled")`` over the
inclusion scenario's definitions, no preloaded rows) and
:func:`~repro.scenarios.reference_model` side by side.  Rules insert (one
statement a row, or one ``executemany`` batch, which is one cohort), update
(one or two SET columns) and delete by key or by owner (``WHERE user_id = ?``,
0..n rows), read under a random purpose, commit, roll back, advance the
clock across transition deadlines, checkpoint, and crash: the engine is
abandoned without ``close()`` and reopened with a bare ``recover()``, while the
model rolls back.

Invariants:

* every statement answers as the model does (checked inside its rule);
* with no transaction open, every live ``(row, attribute)`` is stored at the
  level ``lcp.levels_at(now - inserted_at)`` of the model's row with the same
  primary key, and the scheduler holds it in the state that level is, its
  next step due at ``inserted_at`` plus the model's ``lcp.next_transition``
  (so a schedule that drifts after a crash shows before a deadline passes);
* after each advance, the forensic scan finds no unique employee salary the
  model says is past its exact level, and the scheduler holds no more cohorts
  than before it (a drain advances, defers or finishes cohorts, never splits
  one).

On a failure hypothesis shrinks the rule sequence to a minimal one.  The
settings come from the profile ``tests/conftest.py`` loads: a fixed,
derandomized one in tier-1; ``--hypothesis-profile=long`` runs more and longer
sequences and shrinks what fails (docs/scenarios.md).
"""

import shutil
import tempfile

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api.connection import connect as local_connect
from repro.core.domains import build_diagnosis_tree, build_location_tree
from repro.engine.database import InstantDB
from repro.privacy.forensic import scan_engine
from repro.scenarios import (InclusionScenario, ReferenceModel, ScenarioVariant, employee_salary,
                             reference_model)
from repro.scenarios.driver import canonical_rows

#: Scenario scale: user ids 1..30 carry the per-tuple overrides (5 and 28 are
#: the paranoid users of job_applications' selector).
SCALE = 30
#: The model reads definitions only, so every run's model shares one catalog.
DEFINITIONS = reference_model(InclusionScenario(SCALE)).catalog
DAY = 86400.0
PURPOSES = (None, "casework", "placement", "statistics")
STATUSES = ("new", "processing", "accepted", "refused")
ADDRESSES = tuple(build_location_tree().values_at_level(0)[:6])
DIAGNOSES = tuple(build_diagnosis_tree().values_at_level(0)[:4])
#: Clock advances: a few hours up to past every policy's end (75 days).
SPANS = (4 * 3600.0, DAY, 3 * DAY, 7 * DAY, 21 * DAY, 45 * DAY, 90 * DAY)
#: Keys an UPDATE or DELETE names; inserts hand ids out in order, never twice.
KEY = st.integers(1, 12)
#: Owners an UPDATE or DELETE may name instead, on the tables with a ``user_id``.
OWNER = st.integers(1, 8)
OWNED = ("job_applications", "employee_records")

INSERTS = {
    "job_applications": "INSERT INTO job_applications (id, user_id, company_id, status, "
                        "applicant_address, applied_day) VALUES (?, ?, ?, ?, ?, ?)",
    "employee_records": "INSERT INTO employee_records (id, user_id, company_id, salary, "
                        "address, hired_day) VALUES (?, ?, ?, ?, ?, ?)",
    "users": "INSERT INTO users (id, name, address, health_note, signup_day) "
             "VALUES (?, ?, ?, ?, ?)",
}
#: What an UPDATE may write: the first or both of these non-degradable
#: columns (never ``user_id``: it selects the per-tuple policy).
UPDATED = {"job_applications": ("status", "applied_day"),
           "employee_records": ("hired_day", "company_id"), "users": ("signup_day",)}
#: The reads (every column an UPDATE writes among them); ``?`` takes a status.
QUERIES = (
    "SELECT id, user_id, company_id, status, applicant_address, applied_day FROM job_applications",
    "SELECT id, user_id, company_id, salary, address, hired_day FROM employee_records",
    "SELECT id, name, address, health_note FROM users",
    "SELECT job_applications.id, users.name, users.address FROM job_applications "
    "JOIN users ON job_applications.user_id = users.id",
    "SELECT users.id, job_applications.id FROM users LEFT JOIN job_applications "
    "ON users.id = job_applications.user_id WHERE job_applications.status = ?",
    "SELECT applicant_address, COUNT(*) AS n FROM job_applications GROUP BY applicant_address",
    "SELECT address, COUNT(*) AS n, MIN(salary) AS low FROM employee_records GROUP BY address",
)


class ModelMachine(RuleBasedStateMachine):
    """The engine and the model, one rule at a time."""

    #: The rules the last run executed, in order (a shrunk failure's length).
    steps = []

    def __init__(self):
        super().__init__()
        ModelMachine.steps = []
        self.data_dir = tempfile.mkdtemp(prefix="model-machine-")
        scenario = InclusionScenario(SCALE)
        self.variant = ScenarioVariant("compiled", scenario, data_dir=self.data_dir)
        self.variant.engine.checkpoint()    # the definitions are durable, as deployed
        self.model = ReferenceModel(DEFINITIONS)
        self.next_id = dict.fromkeys(INSERTS, 1)
        #: Statements since the last commit or rollback.
        self.pending = False
        #: Employee ids whose insert committed: their salary is unique.
        self.committed = set()
        #: Engines abandoned by a crash: kept open until teardown, so no
        #: buffered write of theirs lands in the directory a successor reads.
        self.abandoned = []

    def _both(self, call):
        """``call`` on the model, then on the engine: their two results."""
        return call(self.model), call(self.variant)

    # -- statements ----------------------------------------------------------

    def _insert(self, table, rows, batch, values):
        """Insert ``values(key, *row)`` for each row under fresh keys: one
        ``executemany`` (one cohort) or one statement a row."""
        first = self.next_id[table]
        self.next_id[table] += len(rows)
        params = [values(key, *row) for key, row in enumerate(rows, start=first)]
        sql = INSERTS[table]
        ModelMachine.steps.append(f"insert {len(params)} into {table}, batch={batch}")
        if batch:
            expected, actual = self._both(lambda v: v.executemany(sql, params))
            assert actual.rowcount == expected.rowcount == len(params)
        for row in () if batch else params:
            expected, actual = self._both(lambda v: v.execute(sql, row))
            assert actual.rowcount == expected.rowcount == 1
        self.pending = True

    @rule(rows=st.lists(st.tuples(st.integers(1, 8), st.sampled_from(STATUSES),
                                  st.sampled_from(ADDRESSES)), min_size=1, max_size=5),
          batch=st.booleans())
    def insert_applications(self, rows, batch):
        self._insert("job_applications", rows, batch, lambda key, user, status, address:
                     (key, user, 1 + key % 3, status, address, key % 7))

    @rule(rows=st.lists(st.tuples(st.integers(1, 8), st.sampled_from(ADDRESSES)),
                        min_size=1, max_size=5), batch=st.booleans())
    def insert_employees(self, rows, batch):
        self._insert("employee_records", rows, batch, lambda key, user, address:
                     (key, user, 1 + key % 3, employee_salary(key), address, key % 5))

    @rule(rows=st.lists(st.tuples(st.sampled_from(ADDRESSES), st.sampled_from(DIAGNOSES)),
                        min_size=1, max_size=3), batch=st.booleans())
    def insert_users(self, rows, batch):
        self._insert("users", rows, batch, lambda key, address, note:
                     (key, f"user {key}", address, note, key % 11))

    def _modify(self, sql, table, values, key, owner, purpose):
        """``sql`` ending in ``WHERE``, by key or — on a table with a
        ``user_id`` and ``owner`` drawn — by owner."""
        if owner is not None and table in OWNED:
            sql, params = f"{sql} user_id = ?", (*values, owner)
        else:
            sql, params = f"{sql} id = ?", (*values, key)
        ModelMachine.steps.append(f"{sql} {params} purpose={purpose}")
        expected, actual = self._both(lambda v: v.execute(sql, params, purpose=purpose))
        assert actual.rowcount == expected.rowcount
        self.pending = True

    @rule(table=st.sampled_from(sorted(UPDATED)), width=st.integers(1, 2), key=KEY,
          owner=st.none() | OWNER, value=st.integers(0, 3), purpose=st.sampled_from(PURPOSES))
    def update(self, table, width, key, owner, value, purpose):
        columns = UPDATED[table][:width]
        values = [STATUSES[value] if column == "status" else value + index
                  for index, column in enumerate(columns)]
        assignments = ", ".join(f"{column} = ?" for column in columns)
        self._modify(f"UPDATE {table} SET {assignments} WHERE", table, values, key, owner,
                     purpose)

    @rule(table=st.sampled_from(sorted(INSERTS)), key=KEY, owner=st.none() | OWNER,
          purpose=st.sampled_from(PURPOSES))
    def delete(self, table, key, owner, purpose):
        self._modify(f"DELETE FROM {table} WHERE", table, (), key, owner, purpose)

    @rule(purpose=st.sampled_from(PURPOSES), status=st.sampled_from(STATUSES))
    def select(self, purpose, status):
        """Every read of :data:`QUERIES` under one purpose."""
        ModelMachine.steps.append(f"select purpose={purpose} status={status}")
        for query in QUERIES:
            params = (status,) * query.count("?")
            expected, actual = self._both(lambda v: v.execute(query, params, purpose=purpose))
            assert [d[0] for d in actual.description] == [d[0] for d in expected.description]
            assert canonical_rows(actual.fetchall(), False) == \
                canonical_rows(expected.fetchall(), False), (query, params, purpose)

    # -- transactions, time, durability --------------------------------------

    def _commit(self):
        self._both(lambda v: v.commit())
        self.pending = False
        self.committed.update(row.values["id"]
                              for row in self.model.tables.get("employee_records", ()))

    @rule()
    def commit(self):
        ModelMachine.steps.append("commit")
        self._commit()

    @rule()
    def rollback(self):
        ModelMachine.steps.append("rollback")
        self._both(lambda v: v.rollback())
        self.pending = False

    @rule(seconds=st.sampled_from(SPANS))
    def advance(self, seconds):
        ModelMachine.steps.append(f"commit, advance {seconds / DAY:g} d")
        self._commit()
        cohorts = len(self.variant.engine.scheduler.cohorts())
        self._both(lambda v: v.advance(seconds))
        assert self.variant.now() == self.model.now()
        assert len(self.variant.engine.scheduler.cohorts()) <= cohorts
        self.check_forensics()

    @rule(truncate=st.booleans())
    def checkpoint(self, truncate):
        ModelMachine.steps.append(f"checkpoint truncate={truncate}")
        self.variant.engine.checkpoint(truncate_wal=truncate)

    @rule()
    def crash(self):
        """Abandon the engine mid-whatever and reopen its directory cold."""
        ModelMachine.steps.append("crash")
        victim = self.variant.engine
        victim.daemon.pause()
        self.abandoned.append(victim)
        engine = InstantDB(data_dir=self.data_dir)
        engine.recover()
        self.variant.engine = engine
        self.variant.connection = local_connect(engine=engine)
        self.model.rollback()
        self.pending = False
        # recovery's clock is the latest time the log or the heap proves (a
        # logged timestamp, a step's due time): never past the model's
        if self.model.now() > engine.clock.now():
            self.variant.advance(self.model.now() - engine.clock.now())

    # -- invariants ----------------------------------------------------------

    def model_levels(self, table):
        now = self.model.now()
        return {row.values["id"]: row.lcp.levels_at(now - row.inserted_at)
                for row in self.model.tables.get(table, ())}

    @invariant()
    def stored_levels_are_the_models(self):
        if self.pending:
            return
        engine = self.variant.engine
        assert engine.clock.now() == self.model.now()
        for table in INSERTS:
            stored = {row.values["id"]: row.levels for row in engine.stores[table].scan()}
            assert stored == self.model_levels(table), table

    @invariant()
    def schedule_is_the_models(self):
        if self.pending:
            return
        engine, now = self.variant.engine, self.model.now()
        queued = {record_id: steps for record_ids, _states, steps in engine.scheduler.cohorts()
                  for record_id in record_ids}
        for table in INSERTS:
            lcps = {row.values["id"]: row.lcp for row in self.model.tables.get(table, ())}
            for row in engine.stores[table].scan():
                record_id, lcp = (table, row.row_key), lcps[row.values["id"]]
                states = {name: attribute.level_to_state(row.levels[name])
                          for name, attribute in lcp.attributes.items()}
                final = all(state == lcp.attributes[name].num_states - 1
                            for name, state in states.items())
                assert engine.scheduler.current_state(record_id) == ({} if final else states)
                for name, attribute in lcp.attributes.items():
                    step = attribute.next_transition(now - row.inserted_at)
                    due = queued.get(record_id, {}).get(name, (None,))[0]
                    assert due == (None if step is None else row.inserted_at + step[0]), \
                        (record_id, name)

    def check_forensics(self):
        levels = self.model_levels("employee_records")
        expired = [employee_salary(key) for key in sorted(self.committed)
                   if key not in levels or levels[key]["salary"] > 0]
        if expired:
            residual = scan_engine(self.variant.engine, expired).residual_values
            assert not residual, f"expired salaries still readable: {residual}"

    def teardown(self):
        try:
            self.variant.close()
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.abandoned.clear()


TestModelMachine = ModelMachine.TestCase


def test_owner_statements_on_several_rows():
    """What the derandomized run above reaches with at most one matching row,
    on several: a two-column UPDATE and a DELETE by owner on both owned tables,
    rolled back, done again and committed, then a crash and an advance — the
    engine checked against the model after each rule, as there."""
    machine = ModelMachine()

    def owned_by_3(table):
        return [row.values for row in machine.model.tables[table] if row.values["user_id"] == 3]

    try:
        machine.insert_applications(rows=[(3, status, ADDRESSES[0]) for status in STATUSES]
                                    + [(4, "new", ADDRESSES[1])], batch=True)
        machine.insert_employees(rows=[(3, ADDRESSES[2])] * 3 + [(5, ADDRESSES[3])], batch=False)
        machine.commit()
        for table in OWNED:
            machine.update(table=table, width=2, key=1, owner=3, value=2, purpose=None)
        assert {values["status"] for values in owned_by_3("job_applications")} == {"accepted"}
        machine.rollback()
        machine.stored_levels_are_the_models()
        machine.select(purpose=None, status="accepted")
        machine.update(table="job_applications", width=2, key=1, owner=3, value=1,
                       purpose="casework")
        machine.delete(table="employee_records", key=1, owner=3, purpose=None)
        assert len(owned_by_3("job_applications")) == 4 and owned_by_3("employee_records") == []
        machine.commit()
        machine.select(purpose=None, status="processing")
        machine.crash()
        machine.stored_levels_are_the_models()
        machine.select(purpose="statistics", status="processing")
        machine.advance(seconds=DAY)
        machine.stored_levels_are_the_models()
        assert {values["applied_day"] for values in owned_by_3("job_applications")} == {2}
    finally:
        machine.teardown()
