"""Call-count pins on the read path (cProfile totals: deterministic, unlike
timings in a shared sandbox).

* A batch of one must not cost more than the row-at-a-time engine's row: a
  point ``SELECT … WHERE id = ?`` + ``fetchall`` + ``commit`` on a 2,000-row
  table stays within what PR 23 reported for it (255 calls; this engine takes
  about 230).
* A filtered scan pays per row it *keeps*, not per row it reads: 6,000 rows
  under a purpose that sees all of them, a range on a stable column that
  keeps 527 — at most 40 % of the 345,006 calls the parent commit (84cce92,
  ``StoredRow`` + visible dict + ``Filter`` operator per row) made for the
  same statement.

The armed suite (``REPRO_DEBUG_INVARIANTS=1``) wraps engine entry points and
counts differently, so the pins are taken unarmed only.
"""

import cProfile
import os
import pstats

import pytest

import repro
from repro import AttributeLCP
from repro.core.domains import build_location_tree

POINT_STATEMENT_CALLS = 255
PARENT_FILTERED_SCAN_CALLS = 345_006

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_DEBUG_INVARIANTS")),
    reason="the runtime invariant layer adds calls of its own")


def calls(statement):
    statement()                         # plan, compile and warm the caches
    profile = cProfile.Profile()
    profile.enable()
    statement()
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_a_point_statement_costs_no_more_than_it_did():
    connection = repro.connect()
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, note TEXT)")
    cursor.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                       [(i, f"g{i % 5}", i * 7 % 101, f"note-{i}")
                        for i in range(1, 2001)])
    connection.commit()

    def point():
        cursor.execute("SELECT id, grp, val FROM t WHERE id = ?", (77,))
        assert cursor.fetchall() == [(77, "g2", 34)]
        connection.commit()

    assert calls(point) <= POINT_STATEMENT_CALLS


def test_a_filtered_scan_pays_for_the_rows_it_keeps():
    db = repro.InstantDB()
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"],
        name="location_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, day INT, note TEXT)")
    db.execute("DECLARE PURPOSE region SET ACCURACY LEVEL region FOR visits.location")
    connection = repro.connect(engine=db)
    cursor = connection.cursor()
    cursor.executemany(
        "INSERT INTO visits VALUES (?, ?, ?, ?)",
        [(i, "1 Main Street, Paris" if i % 2 else "2 Station Road, Lyon",
          i % 365, f"note-{i}") for i in range(1, 6001)])
    connection.commit()

    def scan():
        cursor.execute("SELECT id, location, note FROM visits "
                       "WHERE day >= ? AND day <= ? ORDER BY id", (100, 130),
                       purpose="region")
        assert len(cursor.fetchall()) == 527
        connection.commit()

    assert calls(scan) <= 0.40 * PARENT_FILTERED_SCAN_CALLS
