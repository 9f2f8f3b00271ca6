"""Call-count pins on the read path (cProfile totals: deterministic, unlike
timings in a shared sandbox).

* A batch of one must not cost more than the row-at-a-time engine's row: a
  point ``SELECT … WHERE id = ?`` + ``fetchall`` + ``commit`` on a 2,000-row
  table stays within what PR 23 reported for it (255 calls, 257 counted as
  below; this engine takes about 246).
* A filtered scan pays per row it *keeps*, not per row it reads: 6,000 rows
  under a purpose that sees all of them, a range on a stable column that
  keeps 527 — at most 40 % of the 345,026 calls the parent commit (84cce92,
  ``StoredRow`` + visible dict + ``Filter`` operator per row) made for the
  same statement.
* A range on a stable INT reads it off the record prefix: at most two
  ``struct.unpack_from`` calls a record examined and three a row kept.
* A page over the purpose's cap costs one comparison, not a generator step:
  a ``GROUP BY`` over 6,000 rows (100 pages; 122 when a record stored each
  INT in nine bytes and each TEXT length in four, 134 when it stored each
  level in nine bytes too) under a purpose that sees none of them costs at most
  half the 1,138 calls the parent commit (db33bfa, one ``_read_keys`` step
  per page run, 134 pages) made for it.

Calls are summed over every profile entry.  The pins were first read off
``pstats.Stats(profile).total_calls``, which keys its entries by ``(file,
line, name)``: every dataclass ``__init__`` is ``<string>:2(__init__)``, so
one overwrote another and its calls went uncounted.  Each budget rose by
what that hid at the commit that fixed it (2, 8 and 3 calls).

The armed suite (``REPRO_DEBUG_INVARIANTS=1``) wraps engine entry points and
counts differently, so the pins are taken unarmed only.
"""

import cProfile
import os

import pytest

import repro
from repro import AttributeLCP
from repro.core.domains import build_location_tree

POINT_STATEMENT_CALLS = 257
PARENT_FILTERED_SCAN_CALLS = 345_026
PARENT_SKIPPED_GROUP_BY_CALLS = 1_138

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_DEBUG_INVARIANTS")),
    reason="the runtime invariant layer adds calls of its own")


def profiled(statement):
    """The profile entries of ``statement``'s second run."""
    statement()                         # plan, compile and warm the caches
    profile = cProfile.Profile()
    profile.enable()
    statement()
    profile.disable()
    return profile.getstats()


def calls(statement):
    return sum(entry.callcount for entry in profiled(statement))


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


def visits(purpose_level):
    """6,000 visits under the location policy, and a purpose ``p`` at ``purpose_level``."""
    db = repro.InstantDB()
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"],
        name="location_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, day INT, note TEXT)")
    db.execute(f"DECLARE PURPOSE p SET ACCURACY LEVEL {purpose_level} FOR visits.location")
    connection = repro.connect(engine=db)
    cursor = connection.cursor()
    cursor.executemany(
        "INSERT INTO visits VALUES (?, ?, ?, ?)",
        [(i, "1 Main Street, Paris" if i % 2 else "2 Station Road, Lyon",
          i % 365, f"note-{i}") for i in range(1, 6001)])
    connection.commit()
    return db, connection, cursor


def test_a_filtered_scan_pays_for_the_rows_it_keeps():
    _db, connection, cursor = visits("region")

    def scan():
        cursor.execute("SELECT id, location, note FROM visits "
                       "WHERE day >= ? AND day <= ? ORDER BY id", (100, 130), purpose="p")
        assert len(cursor.fetchall()) == 527
        connection.commit()

    assert calls(scan) <= 0.40 * PARENT_FILTERED_SCAN_CALLS


def test_a_filter_on_a_stable_int_reads_it_off_the_record_prefix():
    """``day`` is declared after the degradable ``location``, but a record
    stores its stable INT columns first, inside the prefix one unpack
    checks: a record the range drops costs that unpack and its slot's, a row
    it keeps three more at most (its TEXT lengths).  Storing values in
    declared order, the kernel walked ``location`` to reach ``day`` in every
    record: 25,176 unpacks (32,585 calls in all) against 13,176 (20,585)."""
    _db, connection, cursor = visits("region")

    def scan():
        cursor.execute("SELECT id, location, note FROM visits "
                       "WHERE day >= ? AND day <= ? ORDER BY id", (100, 130), purpose="p")
        assert len(cursor.fetchall()) == 527
        connection.commit()

    unpacks = sum(entry.callcount for entry in profiled(scan)
                  if "unpack_from" in repr(entry.code))
    assert unpacks <= 2 * 6000 + 3 * 527


def test_a_scan_over_pages_above_the_cap_pays_per_page_read():
    db, connection, cursor = visits("address")
    db.advance_time(hours=2)            # every row a level past the purpose's cap
    assert db.table_store("visits").heap.page_count == 100

    def group_by():
        cursor.execute("SELECT day, COUNT(*) AS n FROM visits GROUP BY day", purpose="p")
        assert cursor.fetchall() == []
        connection.commit()

    assert calls(group_by) <= 0.50 * PARENT_SKIPPED_GROUP_BY_CALLS
