"""Model test of the cohort schedule: one queue entry per (cohort, attribute,
state) behaves like one per row and step.

A seeded stream runs against a ``remove_on_final`` table with two degradable
columns and a per-tuple override on its selector column: ``executemany``
batches, one-row and multi-row INSERTs (rows inserted at one instant under
one policy form, or join, one cohort), selector UPDATEs and DELETEs of
cohort members, clock advances — some against a reader holding the table
lock (every due step deferred one second), some with the WAL failing once
(the wave re-queued with backoff) — checkpoints and crash + recover.  An
independent per-row automaton, written from the policies alone, predicts
every row's state and queued step (due time and queue position), every step
applied (row, attribute, state, due, applied at — hence its lag) and how
many; the engine, read through the scheduler and the log's committed
``SCHED_STEP`` records, must agree after every operation, with and without
``degradation_max_batch`` cuts.  A twin recovered from the directory equals
the live engine, and the run goes on with the twin.
"""

import random

import pytest

from repro import AttributeLCP, FaultPlan, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.lcp import parse_duration
from repro.storage.wal import LogRecordType, decode_schedule_steps

HOUR = 3600.0
LOCATION_STEPS = ["2 hours", "1 day", "3 days", "5 days"]
STRICT_STEPS = ["1 hour", "5 hours", "1 day", "2 days"]
SALARY_STEPS = ["6 hours", "2 days"]
SALARY_STATES = [0, 2, 4]
PARANOID = (3, 5)                      # owners whose rows follow STRICT_STEPS
ADDRESSES = sorted(build_location_tree().values_at_level(0))[:12]
INSERT = "INSERT INTO visits VALUES (?, ?, ?, ?, ?)"
#: Every live row is visible at these levels (UPDATE / DELETE match through it).
PURPOSE = "everything"


def delays(steps):
    return [parse_duration(step) for step in steps]


def build(data_dir, max_batch, plan):
    db = InstantDB(data_dir=data_dir, degradation_max_batch=max_batch, fault_plan=plan)
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(location, transitions=LOCATION_STEPS, name="addr_lcp"))
    strict = db.register_policy(AttributeLCP(location, transitions=STRICT_STEPS,
                                             name="strict_lcp"))
    db.register_policy(AttributeLCP(salary, states=SALARY_STATES, transitions=SALARY_STEPS,
                                    name="pay_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, owner INT, "
               "location TEXT DEGRADABLE DOMAIN location POLICY addr_lcp, "
               "salary INT DEGRADABLE DOMAIN salary POLICY pay_lcp, note TEXT)")
    db.table_policy("visits").selector_column = "owner"
    for owner in PARANOID:
        db.register_user_policy("visits", owner, {"location": strict})
    db.execute(f"DECLARE PURPOSE {PURPOSE} SET ACCURACY LEVEL "
               "suppressed FOR visits.location, suppressed FOR visits.salary")
    return db


class Model:
    """Each row's automaton: per attribute ``[state, entered at, due, queue
    position]`` (due and position ``None`` once final)."""

    def __init__(self):
        self.rows = {}
        self.applied = []               # (row, attribute, to_state, due, applied at)
        self.steps_since_start = 0

    def insert(self, row_key, owner, now):
        plan = {"location": delays(STRICT_STEPS if owner in PARANOID else LOCATION_STEPS),
                "salary": delays(SALARY_STEPS)}
        self.rows[row_key] = {name: [0, now, now + steps[0], now + steps[0], steps]
                              for name, steps in plan.items()}

    def due(self, now):
        return [(key, name) for key, row in self.rows.items()
                for name, entry in row.items() if entry[3] is not None and entry[3] <= now]

    def ends_a_life(self, now):
        """Whether a step due at ``now`` takes some attribute to its last state."""
        return any(self.rows[key][name][0] + 1 == len(self.rows[key][name][4])
                   for key, name in self.due(now))

    def defer(self, now, until):
        for key, name in self.due(now):
            self.rows[key][name][3] = until

    def drain(self, now):
        while True:
            due = self.due(now)
            if not due:
                return
            for key, name in due:
                entry = self.rows[key][name]
                entry[0] += 1
                entry[1] = entry[2]
                self.applied.append((key, name, entry[0], entry[2], now))
                self.steps_since_start += 1
                if entry[0] < len(entry[4]):
                    entry[2] = entry[3] = entry[1] + entry[4][entry[0]]
                else:
                    entry[2] = entry[3] = None
            for key in [key for key, row in self.rows.items()
                        if all(entry[2] is None for entry in row.values())]:
                del self.rows[key]        # full suppression: removed

    def schedule(self):
        return {key: {name: (entry[0], entry[2], entry[3]) for name, entry in row.items()}
                for key, row in self.rows.items()}


def engine_schedule(db):
    flat = {}
    for cohort in db.scheduler.snapshot().cohorts:
        for table, row_key in cohort.record_ids:
            flat[row_key] = {name: (state, *cohort.pending.get(name, (None, None)))
                             for name, state in cohort.current_states.items()}
    return flat


class LogReader:
    """The committed SCHED_STEP groups of the log, read as the log grows
    (checkpoints truncate it, so a transaction id may come back: an
    incarnation ends where the next BEGIN of its id starts)."""

    def __init__(self):
        self.seen = 0
        self.open = {}                  # txn id → [steps, last control record]
        self.committed = []

    def _close(self, txn_id):
        steps, fate = self.open.pop(txn_id, ([], None))
        if fate is LogRecordType.COMMIT:
            self.committed += steps

    def read(self, db):
        for record in db.wal:
            if record.lsn <= self.seen:
                continue
            self.seen = record.lsn
            kind, txn = record.record_type, record.txn_id
            if kind is LogRecordType.BEGIN:
                self._close(txn)
            entry = self.open.setdefault(txn, [[], None])
            if kind in (LogRecordType.COMMIT, LogRecordType.ABORT):
                entry[1] = kind
            elif kind is LogRecordType.SCHED_STEP:
                entry[0] += [(row_key, attribute, to_state, due, record.timestamp)
                             for attribute, to_state, due, row_keys
                             in decode_schedule_steps(record.after)
                             for row_key in row_keys]

    def applied(self):
        return sorted(self.committed + [step for steps, fate in self.open.values()
                                        if fate is LogRecordType.COMMIT for step in steps])


def check(db, model, log):
    assert engine_schedule(db) == model.schedule()
    assert db.scheduler.registered_count() == db.row_count("visits") == len(model.rows)
    for row_key in list(model.rows)[:5]:
        assert db.scheduler.current_state(("visits", row_key)) == \
            {name: entry[0] for name, entry in model.rows[row_key].items()}
    log.read(db)
    assert log.applied() == sorted(model.applied)
    assert db.scheduler.stats.steps_applied == model.steps_since_start
    lags = [now - due for *_rest, due, now in model.applied[-model.steps_since_start:]] \
        if model.steps_since_start else []
    assert db.scheduler.stats.total_lag == pytest.approx(sum(lags))
    assert db.scheduler.stats.max_lag == pytest.approx(max(lags, default=0.0))


@pytest.mark.parametrize("max_batch, faults", [(None, True), (7, False), (1, False)])
@pytest.mark.parametrize("seed", [3, 17])
def test_cohorts_step_like_rows(tmp_path, seed, max_batch, faults):
    rng = random.Random(seed)
    plan = FaultPlan(seed)
    db = build(str(tmp_path), max_batch, plan)
    model, log = Model(), LogReader()
    next_id = iter(range(1, 10**6))
    backoff = 0                         # consecutive faulted waves

    def rows(count):
        return [(next(next_id), rng.randrange(1, 7), rng.choice(ADDRESSES),
                 rng.randrange(1000, 9000), "n" * rng.randrange(0, 9))
                for _ in range(count)]

    for _ in range(140):
        op = rng.choices(["batch", "one", "multi", "update", "delete", "advance",
                          "recover"], [5, 2, 1, 2, 2, 7, 1])[0]
        if op in ("batch", "one", "multi"):
            first_key = db.table_store("visits")._next_row_key
            batch = rows({"batch": rng.randrange(1, 60), "one": 1, "multi": 2}[op])
            if op == "batch":
                db.executemany(INSERT, batch)
            elif op == "one":
                db.execute(INSERT, params=batch[0])
            else:
                db.execute("INSERT INTO visits VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)",
                           params=batch[0] + batch[1])
            for offset, row in enumerate(batch):
                model.insert(first_key + offset, row[1], db.now())
        elif op in ("update", "delete") and model.rows:
            for row_key in rng.sample(sorted(model.rows), min(len(model.rows), 3)):
                row_id = db.table_store("visits").read(row_key).values["id"]
                if op == "update":     # the selector moves; the registered policy stays
                    db.execute("UPDATE visits SET owner = ? WHERE id = ?", purpose=PURPOSE,
                               params=(rng.randrange(1, 7), row_id))
                else:
                    db.execute("DELETE FROM visits WHERE id = ?", purpose=PURPOSE,
                               params=(row_id,))
                    del model.rows[row_key]
        elif op == "advance":
            hours = rng.choice([0.5, 1, 3, 7, 13, 30, 80])
            expected = db.now() + hours * HOUR
            due = bool(model.due(expected))
            holder = fault = None
            if due and rng.random() < 0.2:
                holder = db.begin()              # a reader holding the table lock
                db.execute("SELECT COUNT(*) FROM visits", txn=holder)
            elif faults and due and rng.random() < 0.3 and not model.ends_a_life(expected):
                fault = len(plan.fired)
                plan.fail_once("wal.flush", "enospc")
            db.advance_time(hours=hours)
            now = db.now()
            assert now == expected
            if holder is not None:
                model.defer(now, now + 1.0)
                db.commit(holder)
            elif fault is not None:
                assert len(plan.fired) == fault + 1     # the wave met it
                model.defer(now, now + 2.0 ** min(backoff, 8))
                backoff += 1
            else:
                if due:
                    backoff = 0
                model.drain(now)
        elif op == "recover":
            db.checkpoint(truncate_wal=rng.random() < 0.5)
            log.read(db)
            live, now = engine_schedule(db), db.now()
            db.pager.close()                     # abandoned: no checkpoint, no close()
            db = InstantDB(data_dir=str(tmp_path), degradation_max_batch=max_batch,
                           fault_plan=plan)
            db.recover()
            if db.now() < now:
                db.advance_time(seconds=now - db.now())
            assert engine_schedule(db) == live   # live ≡ recovered
            model.steps_since_start = 0
            backoff = 0
        check(db, model, log)
    db.close()
    assert model.applied
    if max_batch != 1:              # the per-step baseline cuts every cohort to rows
        assert len(db.scheduler.snapshot().cohorts) < db.scheduler.registered_count() / 2
