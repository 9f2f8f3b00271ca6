"""Model test of the cohort schedule: one queue entry per (cohort, attribute,
state) behaves like one per row and step.

A seeded stream runs against a ``remove_on_final`` table with two degradable
columns and a per-tuple override on its (stable) selector column:
``executemany`` batches, one-row and multi-row INSERTs (rows inserted at one
instant under one policy form, or join, one cohort), UPDATEs and DELETEs of
cohort members, clock advances — some against a reader holding the table
lock (every due step deferred one second), some with the wave's page sync
failing once (the wave re-queued with backoff) — checkpoints and crash +
recover.  An
independent per-row automaton, written from the policies alone, predicts
every row's state and queued step (due time and queue position), every step
applied (row, attribute, state, due, applied at — hence its lag) and how
many; the engine, read through the scheduler and the steps its applier
reports, must agree after every operation, with and without sync faults,
and no drain adds a cohort.  The run goes on with a twin recovered from the
directory, whose schedule is derived from the heap: a step a lock deferred
is due again, one a fault deferred is on the heap already.
"""

import random

import pytest

from repro import AttributeLCP, FaultPlan, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.lcp import parse_duration

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


def build(data_dir, plan):
    db = InstantDB(data_dir=data_dir, fault_plan=plan)
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
        self.faulted = set()            # (row, attribute) deferred by a faulted wave
        self.backoff = 0                # consecutive faulted waves

    def insert(self, row_key, owner, now):
        plan = {"location": delays(STRICT_STEPS if owner in PARANOID else LOCATION_STEPS),
                "salary": delays(SALARY_STEPS)}
        self.rows[row_key] = {name: [0, now, now + steps[0], now + steps[0], steps]
                              for name, steps in plan.items()}

    def due(self, now):
        return [(key, name) for key, row in self.rows.items()
                for name, entry in row.items() if entry[3] is not None and entry[3] <= now]

    def fault_lands(self, now):
        """Whether a page sync failing once is met by the drain to ``now`` as
        the model tells it: no faulted step waits for its retry (a retry
        rewrites no record, and syncs a page only where its rows still hold
        log images, which the model does not track), some step is due — the
        first round rewrites its records and syncs their pages — and that
        round takes no attribute to its last state (a removal in a faulted
        wave is not modelled)."""
        due = self.due(now)
        return not self.faulted and bool(due) and not any(
            self.rows[key][name][0] + 1 == len(self.rows[key][name][4]) for key, name in due)

    def defer(self, now, until, faulted=False):
        for key, name in self.due(now):
            self.rows[key][name][3] = until
            if faulted:
                self.faulted.add((key, name))

    @staticmethod
    def step(entry):
        entry[0] += 1
        entry[1] = entry[2]
        if entry[0] < len(entry[4]):
            entry[2] = entry[3] = entry[1] + entry[4][entry[0]]
        else:
            entry[2] = entry[3] = None

    def apply(self, due, now):
        """One drain round applies ``due``; it commits, so the backoff ends."""
        for key, name in due:
            entry = self.rows[key][name]
            self.step(entry)
            self.faulted.discard((key, name))
            self.applied.append((key, name, entry[0], entry[1], now))
            self.steps_since_start += 1
        for key in [key for key, row in self.rows.items()
                    if all(entry[2] is None for entry in row.values())]:
            del self.rows[key]            # full suppression: removed
        self.backoff = 0

    def drain(self, now, fault=False):
        """Round by round, as the engine's drain goes; with ``fault`` the
        first round that rewrites a record meets the failing sync, and its
        steps are deferred with backoff (retry-only rounds before it apply)."""
        while True:
            due = self.due(now)
            if not due:
                return
            if fault and not self.faulted.issuperset(due):
                self.defer(now, now + 2.0 ** min(self.backoff, 8), faulted=True)
                self.backoff += 1
                return
            self.apply(due, now)

    def recover(self, now):
        """What a twin derives from the heap: a faulted wave's rewrite is on
        it (that step is done, uncounted); a lock deferral is lost (the step
        is due again) — then the twin's catch-up drains at ``now``."""
        for key, name in self.faulted:
            if key in self.rows:            # else deleted since
                self.step(self.rows[key][name])
        self.faulted.clear()
        self.backoff = 0
        for row in self.rows.values():
            for entry in row.values():
                entry[3] = entry[2]
        self.steps_since_start = 0
        self.drain(now)

    def schedule(self):
        return {key: {name: (entry[0], entry[2], entry[3]) for name, entry in row.items()}
                for key, row in self.rows.items()}


def engine_schedule(db):
    return {row_key: {name: (state, *queued.get(name, (None, None)))
                      for name, state in states.items()}
            for record_ids, states, queued in db.scheduler.cohorts()
            for _table, row_key in record_ids}


def observe(db, applied):
    """Append each step the engine's applier applies to ``applied``, as
    ``(row, attribute, to_state, due, applied at)``."""
    applier = db.daemon.applier

    def observed(table, steps):
        done = applier(table, steps)
        applied.extend((row_key, step.attribute, step.to_state, step.due, db.now())
                       for step in done for _table, row_key in step.record_ids)
        return done

    db.daemon.applier = observed
    return db


def check(db, model, applied):
    assert engine_schedule(db) == model.schedule()
    assert db.scheduler.registered_count() == db.row_count("visits") == len(model.rows)
    for row_key in list(model.rows)[:5]:
        assert db.scheduler.current_state(("visits", row_key)) == \
            {name: entry[0] for name, entry in model.rows[row_key].items()}
    assert sorted(applied) == sorted(model.applied)
    assert db.scheduler.stats.steps_applied == model.steps_since_start
    lags = [now - due for *_rest, due, now in model.applied[-model.steps_since_start:]] \
        if model.steps_since_start else []
    assert db.scheduler.stats.total_lag == pytest.approx(sum(lags))
    assert db.scheduler.stats.max_lag == pytest.approx(max(lags, default=0.0))


@pytest.mark.parametrize("faults", [True, False])
@pytest.mark.parametrize("seed", [3, 17])
def test_cohorts_step_like_rows(tmp_path, seed, faults):
    rng = random.Random(seed)
    plan = FaultPlan(seed)
    model, applied = Model(), []
    db = observe(build(str(tmp_path), plan), applied)
    next_id = iter(range(1, 10**6))

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
                if op == "update":     # the selector (owner) cannot be assigned
                    db.execute("UPDATE visits SET note = ? WHERE id = ?", purpose=PURPOSE,
                               params=("u" * rng.randrange(0, 9), row_id))
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
            elif faults and due and rng.random() < 0.3 and model.fault_lands(expected):
                fault = len(plan.fired)
                plan.fail_once("pager.sync", "enospc")
            cohorts = len(db.scheduler.cohorts())
            db.advance_time(hours=hours)
            now = db.now()
            assert now == expected
            # A drain advances, defers or finishes cohorts, never splits one.
            assert len(db.scheduler.cohorts()) <= cohorts
            if holder is not None:
                model.defer(now, now + 1.0)
                db.commit(holder)
            else:
                if fault is not None:
                    assert len(plan.fired) == fault + 1     # the wave met it
                model.drain(now, fault=fault is not None)
        elif op == "recover":
            db.checkpoint(truncate_wal=rng.random() < 0.5)
            now = db.now()
            db.pager.close()                     # abandoned: no checkpoint, no close()
            db = observe(InstantDB(data_dir=str(tmp_path), fault_plan=plan), applied)
            db.recover()
            assert db.now() == now               # the checkpoint logged the time
            model.recover(now)
        check(db, model, applied)
    db.close()
    assert model.applied
    # Rows share cohorts: a drain never splits one.
    assert len(db.scheduler.cohorts()) < db.scheduler.registered_count() / 2
