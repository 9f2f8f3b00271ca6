"""Call-count pins on the write path (cProfile totals: deterministic, unlike
wall-clock timings).

* A batch insert is one statement: an 800-row ``executemany`` into a table
  whose selector column picks a per-tuple policy override appends exactly
  800 ``INSERT`` records (each image stays scrubbable on its own) plus one
  ``SCHED_REGISTER`` per policy group, and makes at most half of the 253,583
  calls the row-at-a-time ingest (commit 8514bdb) made for it.
* A cohort of one does not tax the everyday path: a one-row INSERT +
  commit makes no more than the 391 calls it made there.

The armed suite (``REPRO_DEBUG_INVARIANTS=1``) wraps engine entry points and
counts differently, so the pins are taken unarmed only.
"""

import cProfile
import os
import pstats
from collections import Counter

import pytest

import repro
from repro import AttributeLCP
from repro.core.domains import build_location_tree
from repro.storage.wal import LogRecordType

ROW_AT_A_TIME_BATCH_CALLS = 253_583
ROW_AT_A_TIME_ONE_ROW_CALLS = 391
ADDRESSES = ("1 Main Street, Paris", "2 Station Road, Lyon", "10 Downing Street, London")
INSERT = "INSERT INTO visits VALUES (?, ?, ?, ?)"

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_DEBUG_INVARIANTS")),
    reason="the runtime invariant layer adds calls of its own")


def engine():
    db = repro.InstantDB()
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, transitions=["1 h", "1 d", "1 month", "3 months"],
                                    name="location_lcp"))
    strict = db.register_policy(AttributeLCP(location, transitions=["1 min", "1 h", "1 d", "2 d"],
                                             name="strict_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, owner INT, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, note TEXT)")
    db.table_policy("visits").selector_column = "owner"
    db.register_user_policy("visits", 3, {"location": strict})
    return db


def rows(first, count):
    return [(i, i % 7, ADDRESSES[i % 3], f"note-{i}") for i in range(first, first + count)]


def profiled(statement):
    profile = cProfile.Profile()
    profile.enable()
    statement()
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_a_batch_insert_is_one_statement():
    db = engine()
    connection = repro.connect(engine=db)
    cursor = connection.cursor()
    cursor.executemany(INSERT, rows(1, 800))          # warm every cache
    connection.commit()
    appended, last = db.wal.stats.appended, db.wal.last_lsn

    def batch():
        cursor.executemany(INSERT, rows(801, 800))
        connection.commit()

    calls = profiled(batch)
    logged = [record for record in db.wal if record.lsn > last]
    kinds = Counter(record.record_type for record in logged)
    assert kinds[LogRecordType.INSERT] == 800
    assert kinds[LogRecordType.SCHED_REGISTER] == 2    # owner 3's override, the rest
    assert db.wal.stats.appended - appended == len(logged) == 800 + 2 + sum(
        kinds[kind] for kind in (LogRecordType.BEGIN, LogRecordType.COMMIT,
                                 LogRecordType.PAGE_ALLOC))
    assert calls <= ROW_AT_A_TIME_BATCH_CALLS // 2


def test_a_cohort_of_one_costs_no_more_than_a_row_did():
    db = engine()
    connection = repro.connect(engine=db)
    cursor = connection.cursor()
    cursor.executemany(INSERT, rows(1, 200))
    connection.commit()
    next_id = iter(range(5000, 5002))

    def one():
        cursor.execute(INSERT, rows(next(next_id), 1)[0])
        connection.commit()

    one()
    assert profiled(one) <= ROW_AT_A_TIME_ONE_ROW_CALLS
