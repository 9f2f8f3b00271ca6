"""Call-count pins on the write path (cProfile totals: deterministic, unlike
wall-clock timings).

* A batch insert is one statement: an 800-row ``executemany`` into a table
  whose selector column picks a per-tuple policy override appends exactly
  one ``DELTA`` record per heap page it filled (each row's image in it
  stays scrubbable on its own) and no schedule record (the schedule is
  derived from the heap).  It pays per page and per column, not per row
  and per value — the compiled row encoder, whole-page fills, batch
  statistics — so it makes at most 5 % more than the 28,174 calls measured
  when a heap page came to name its owner in its header instead of a log
  record a page (36,368 when those came in; 118,700 before them; 253,583
  for the row-at-a-time ingest of commit 8514bdb).
* A cohort of one does not tax the everyday path: a one-row INSERT +
  commit makes no more than the 364 calls it made before the batch path
  went per page and per column, and a one-row ``DELETE`` + commit no more
  than the 433 it made before (commit 3c16a51) — its leaving row is counted
  into the statistics without a ``Counter`` or a batch's type survey.

Calls are summed over every profile entry (:func:`total_calls`).  The pins
were first read off ``pstats.Stats(profile).total_calls``, which keys its
entries by ``(file, line, name)``: every dataclass ``__init__`` is
``<string>:2(__init__)``, so one overwrote another and its calls went
uncounted.  Each pin rose by what that hid at the commit that fixed it.

The armed suite (``REPRO_DEBUG_INVARIANTS=1``) wraps engine entry points and
counts differently, so the pins are taken unarmed only.
"""

import cProfile
import os
from collections import Counter

import pytest

import repro
from repro import AttributeLCP
from repro.core.domains import build_location_tree
from repro.storage.wal import LogRecordType, delta_entries

BATCH_CALLS = 28_174
ONE_ROW_CALLS = 364
ONE_ROW_DELETE_CALLS = 433
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


def total_calls(profile):
    """Every call ``profile`` saw: one entry per code object, each counted."""
    return sum(entry.callcount for entry in profile.getstats())


def profiled(statement):
    profile = cProfile.Profile()
    profile.enable()
    statement()
    profile.disable()
    return total_calls(profile)


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
    store = db._store_for("visits")
    pages = {store.page_of(row_key) for row_key in range(801, 1601)}
    assert kinds[LogRecordType.DELTA] == len(pages) < 800 // 20
    assert sum(len(delta_entries(record)) for record in logged
               if record.record_type is LogRecordType.DELTA) == 800
    assert not [kind for kind in kinds if kind.name.startswith("SCHED_")]
    assert kinds[LogRecordType.BEGIN] == kinds[LogRecordType.COMMIT] == 1
    assert db.wal.stats.appended - appended == len(logged) == len(pages) + 2
    assert calls <= BATCH_CALLS * 105 // 100


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
    assert profiled(one) <= ONE_ROW_CALLS


def test_a_one_row_delete_costs_no_more_than_before_the_batch_path():
    db = engine()
    connection = repro.connect(engine=db)
    cursor = connection.cursor()
    cursor.executemany(INSERT, rows(1, 200))
    connection.commit()
    doomed = iter(range(1, 200))

    def one():
        cursor.execute("DELETE FROM visits WHERE id = ?", (next(doomed),))
        connection.commit()

    one()
    assert profiled(one) <= ONE_ROW_DELETE_CALLS
