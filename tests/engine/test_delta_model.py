"""Model test of the single fan-out: derived state ≡ rebuild, live ≡ recovered.

A seeded stream of INSERT / UPDATE / DELETE / commit / rollback /
advance_time runs against a table with a primary key, a B+-tree index, a GT
index and a ``remove_on_final`` policy.  After every step the visible rows
equal a dict model's, every index and the statistics equal what
``_rebuild_indexes`` derives from the heap alone, and the schedule tracks
exactly the live rows; at the end a twin recovered from the same directory
equals the live engine.
"""

import copy
import random

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.core.lcp import parse_duration

from ..conftest import LOCATION_TRANSITIONS, derived_state

ADDRESSES = ["1 Main Street, Paris", "2 Station Road, Lyon", "1 Main Street, Berlin"]
NAMES = ["ann", "bob", "cy", "dee"]
#: A row lives until its last transition (full suppression) removes it.
LIFETIME = sum(parse_duration(delay) for delay in LOCATION_TRANSITIONS)
VISIBLE = "SELECT id, name, grp FROM t"
HOUR, DAY = 3600.0, 86400.0


def build(data_dir):
    db = InstantDB(data_dir=data_dir)
    tree = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(tree, transitions=LOCATION_TRANSITIONS,
                                    name="location_lcp"))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, grp INT, "
               "location TEXT DEGRADABLE DOMAIN location POLICY location_lcp)")
    db.execute("CREATE INDEX t_name ON t (name)")
    db.execute("CREATE INDEX t_location ON t (location) USING gt")
    # Country accuracy stays computable until the row is removed.
    db.execute("DECLARE PURPOSE coarse SET ACCURACY LEVEL country FOR t.location")
    return db


class Model:
    """Rows as ``[id, name, grp, expires_at]`` under a key of their own (the
    primary key is updatable), committed and as the open transaction sees
    them."""

    def __init__(self):
        self.committed = {}
        self.working = {}

    def rows(self):
        return sorted(tuple(row[:3]) for row in self.working.values())

    def settle(self, committed):
        """A transaction ended: one side becomes both."""
        self.committed = copy.deepcopy(committed)
        self.working = copy.deepcopy(committed)


def check(db, model, txn):
    assert sorted(db.execute(VISIBLE, purpose="coarse", txn=txn).rows) == model.rows()
    live = derived_state(db, "t")
    db._rebuild_indexes()
    assert live == derived_state(db, "t")
    # remove_on_final: a row is live exactly while it is not yet final.
    assert db.scheduler.registered_count() == db.row_count("t") == len(live[3])


@pytest.mark.parametrize("seed", [23, 42])
def test_derived_state_follows_every_change(tmp_path, seed):
    rng = random.Random(seed)
    db = build(str(tmp_path))

    def run(sql, *params):
        # Under the purpose: a bare UPDATE/DELETE does not see degraded rows.
        return db.execute(sql, purpose="coarse", txn=txn, params=params)

    model = Model()
    txn = None
    next_id = 1
    for _step in range(70):
        op = rng.choice(["insert", "insert", "update", "update", "update_pk",
                         "delete", "begin", "commit", "rollback", "advance",
                         "advance"])
        key = rng.choice(sorted(model.working)) if model.working else None
        if op == "insert":
            row = [next_id, rng.choice(NAMES), rng.randrange(3)]
            run("INSERT INTO t VALUES (?, ?, ?, ?)", *row, rng.choice(ADDRESSES))
            model.working[next_id] = row + [db.now() + LIFETIME]
            next_id += 1
        elif op == "update" and key is not None:
            row = model.working[key]
            name, grp = rng.choice(NAMES), rng.randrange(3)
            if rng.random() < 0.5:      # through pk_t, two assignments
                run("UPDATE t SET name = ?, grp = ? WHERE id = ?", name, grp, row[0])
                row[1:3] = [name, grp]
            else:                       # through t_name, maybe several rows
                run("UPDATE t SET grp = ? WHERE name = ?", grp, row[1])
                for other in model.working.values():
                    if other[1] == row[1]:
                        other[2] = grp
        elif op == "update_pk" and key is not None:
            run("UPDATE t SET id = ? WHERE id = ?", next_id, model.working[key][0])
            model.working[key][0] = next_id
            next_id += 1
        elif op == "delete" and key is not None:
            run("DELETE FROM t WHERE id = ?", model.working[key][0])
            # A secure erase at statement time: gone whatever the transaction does.
            del model.working[key]
            model.committed.pop(key, None)
        elif op == "begin" and txn is None:
            txn = db.begin()
        elif op == "commit" and txn is not None:
            db.commit(txn)
            txn = None
        elif op == "rollback" and txn is not None:
            db.rollback(txn)
            txn = None
            model.settle(model.committed)
        elif op == "advance" and txn is None:
            db.advance_time(rng.choice([HOUR / 2, 2 * HOUR, 3 * DAY, 40 * DAY, 100 * DAY]))
            for key in [key for key, row in model.working.items()
                        if row[3] <= db.now()]:
                del model.working[key]
        if txn is None:
            model.settle(model.working)
        check(db, model, txn)
    if txn is not None:
        db.rollback(txn)
        model.settle(model.committed)
        check(db, model, None)
    twin = InstantDB(data_dir=str(tmp_path))
    twin.recover()
    assert sorted(twin.execute(VISIBLE, purpose="coarse").rows) == model.rows()
    assert twin.level_histogram("t", "location") == db.level_histogram("t", "location")
    assert derived_state(twin, "t") == derived_state(db, "t")
    assert twin.scheduler.registered_count() == db.scheduler.registered_count()
