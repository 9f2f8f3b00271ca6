"""Scan counters stay exact when the exclusion check runs inside the store.

``SeqScan`` hands its per-column level caps to the store's run reader, which
drops a row the purpose cannot see on its record header alone.  Everything that
counts rows — ``ExecutorStats``, the operator's own counters, the store's
``reads`` and ``EXPLAIN ANALYZE`` — must read as it did when the operator
decoded every row and threw the excluded ones away afterwards.  The numbers
below were taken on the commit before that pushdown; since the WHERE clause
runs inside the scan too (compiled mode), a scan's ``rows_out`` counts the
rows that also passed its filter — the reference mode still shows a ``Filter``.
"""

from collections import Counter

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"
WAVE = 300          # rows per insert wave; three waves sit at three levels


@pytest.fixture(params=[True, False], ids=["compiled", "interpreted"])
def db(request):
    """900 visits over ~20 pages: ids 1–300 at region level, 301–600 at city
    level, 601–900 still at address level."""
    db = InstantDB(read_path_optimizations=request.param)
    db.pushdown = request.param
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"],
        name="location_lcp"))
    db.register_policy(AttributeLCP(salary, states=[0, 1],
                                    transitions=["12 months"], name="slow_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, "
               "salary INT DEGRADABLE DOMAIN salary POLICY slow_lcp, "
               "grp TEXT, note TEXT)")
    for level in ("address", "city", "region"):
        db.execute(f"DECLARE PURPOSE {level} SET ACCURACY LEVEL {level} "
                   f"FOR visits.location")
    for wave, pause in enumerate(({"days": 2}, {"hours": 2}, None)):
        first = wave * WAVE + 1
        db.executemany(
            "INSERT INTO visits VALUES (?, ?, ?, ?, ?)",
            [(i, PARIS if i % 2 else LYON, 1000 + i, f"g{i % 5}", f"note-{i}")
             for i in range(first, first + WAVE)])
        if pause:
            db.advance_time(**pause)
    assert db.level_histogram("visits", "location") == {2: WAVE, 1: WAVE, 0: WAVE}
    return db


def run(db, sql, purpose):
    """Execute and return (result, Δrows_scanned, Δexcluded, Δstore reads)."""
    stats, store = db.executor.stats, db._store_for("visits")
    before = (stats.rows_scanned, stats.rows_excluded_not_computable,
              store.stats.reads)
    result = db.execute(sql, purpose=purpose)
    return (result, stats.rows_scanned - before[0],
            stats.rows_excluded_not_computable - before[1],
            store.stats.reads - before[2])


class TestFullyConsumedScans:
    @pytest.mark.parametrize("purpose,visible", [
        ("address", WAVE), ("city", 2 * WAVE), ("region", 3 * WAVE)])
    def test_full_scan(self, db, purpose, visible):
        result, scanned, excluded, reads = run(
            db, "SELECT id, location FROM visits", purpose)
        scan = result.pipeline.find("SeqScan")
        assert len(result.rows) == visible
        assert scanned == reads == 3 * WAVE
        assert excluded == scan.rows_excluded_not_computable == 3 * WAVE - visible
        assert scan.stats.rows_out == visible

    def test_filtered_scan(self, db):
        result, scanned, excluded, reads = run(
            db, "SELECT id FROM visits WHERE grp = 'g1' AND salary > 1650", "city")
        scan = result.pipeline.find("SeqScan")
        # Excluded rows are counted as scanned and never reach the filter.
        assert scanned == reads == scan.examined == 900
        assert excluded == scan.rows_excluded_not_computable == 300
        last = scan if db.pushdown else result.pipeline.find("Filter")
        assert (scan.stats.rows_out, last.stats.rows_out) == \
            ((50, 50) if db.pushdown else (600, 50))
        assert len(result.rows) == 50

    def test_explain_analyze_operator_rows(self, db):
        lines = [row[0] for row in db.execute(
            "EXPLAIN ANALYZE SELECT id FROM visits WHERE grp = 'g1'",
            purpose="address").rows]
        scan_line = next(line for line in lines[1:] if "SeqScan" in line)
        assert scan_line.endswith("(examined=900 excluded=600)")
        if db.pushdown:
            assert "filter (grp = 'g1') (rows=60)" in scan_line
        else:
            assert "(rows=300)" in scan_line
            assert "(rows=60)" in next(line for line in lines[1:] if "Filter" in line)

    def test_excluded_rows_reported_when_nothing_is_visible(self, db):
        db.advance_time(hours=2)        # the last wave leaves address level too
        result, scanned, excluded, reads = run(db, "SELECT id FROM visits", "address")
        assert result.rows == []
        assert scanned == excluded == reads == 900


class TestEarlyTermination:
    def test_limit_over_reads_at_most_one_page(self, db):
        store = db._store_for("visits")
        fullest_page = max(Counter(map(store.page_of, store.row_keys())).values())
        # Purpose "address" sees ids 601–900 only: the scan drops 600 rows on
        # their headers, then stops 5 rows into the visible wave.
        result, scanned, excluded, reads = run(
            db, "SELECT id FROM visits LIMIT 5", "address")
        scan = result.pipeline.find("SeqScan")
        assert result.rows == [(601,), (602,), (603,), (604,), (605,)]
        assert scan.stats.rows_out == 5
        assert excluded == scan.rows_excluded_not_computable == 600
        assert scanned == 605
        assert 605 <= reads <= 605 + fullest_page
