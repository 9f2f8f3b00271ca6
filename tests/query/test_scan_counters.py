"""Scan counters stay exact when the exclusion check runs inside the store.

``SeqScan`` hands its per-column level caps to the store's run reader, which
drops a row the purpose cannot see on its record header alone — or a whole
page on the page's level floor, before any header.  Everything that counts rows
— ``ExecutorStats``, the operator's own counters and ``EXPLAIN ANALYZE`` — must
read as it did when the operator decoded every row and threw the excluded ones
away afterwards.  The numbers below were taken on the commit before that
pushdown; since the WHERE clause runs inside the scan too, a scan's
``rows_out`` counts the rows that also passed its filter.  The store's
``reads`` counts records decoded: every record of each page that holds a row
the purpose may see, none of the skipped pages (:func:`decoded_records`).
Page counts and decoded records were taken again when a record came to
store each level in one byte (more records a page; the lazy pipeline of
:class:`TestRunsCrossTheOperators` reads the same).  Since a record stores
a small INT in 5 bytes and a short TEXT with a 1-byte length, each note is
padded by the 17 bytes that saves a row (:data:`PAD`): every record keeps
the length those counts were taken at.
The rows themselves are the reference model's (:mod:`repro.scenarios.reference`),
which holds the same inserts at the same instants.
"""

from collections import Counter

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.query.operators import lazy
from repro.scenarios.reference import ReferenceModel

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"
WAVE = 300          # rows per insert wave; three waves sit at three levels
#: 4 bytes each of ``id`` and ``salary``, 3 each of three TEXT lengths.
PAD = "." * 17
#: Purpose → its cap on the location level, and the records its full scan
#: decodes (degradation shrank the old waves' records, so later waves filled
#: their pages' room: 6 of 19 pages hold no address-level row, 5 no
#: city-level one).
CAPS = {"address": 0, "city": 1, "region": 2}
DECODED = {"address": 626, "city": 674, "region": 900}


@pytest.fixture
def db():
    """900 visits over ~20 pages: ids 1–300 at region level, 301–600 at city
    level, 601–900 still at address level — and ``db.model``, the reference
    model holding the same rows."""
    db = InstantDB()
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
    db.model = ReferenceModel(db.catalog)
    for wave, pause in enumerate((2 * 86400.0, 2 * 3600.0, 0.0)):
        first = wave * WAVE + 1
        for target in (db, db.model):
            target.executemany(
                "INSERT INTO visits VALUES (?, ?, ?, ?, ?)",
                [(i, PARIS if i % 2 else LYON, 1000 + i, f"g{i % 5}", f"note-{i}{PAD}")
                 for i in range(first, first + WAVE)])
        db.advance_time(pause)
        db.model.advance(pause)
    assert db.level_histogram("visits", "location") == {2: WAVE, 1: WAVE, 0: WAVE}
    return db


def decoded_records(db, purpose):
    """The records on the pages holding at least one row whose stored
    location level the purpose may see (read row by row, off the books)."""
    store = db._store_for("visits")
    pages = {}
    for key in store.row_keys():
        level = store.read(key, frozenset()).levels["location"]
        pages.setdefault(store.page_of(key), []).append(level)
    store.stats.reads -= store.row_count
    return sum(len(levels) for levels in pages.values()
               if min(levels) <= CAPS[purpose])


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
        assert scanned == 3 * WAVE
        assert reads == decoded_records(db, purpose) == DECODED[purpose]
        assert excluded == scan.rows_excluded_not_computable == 3 * WAVE - visible
        assert scan.stats.rows_out == visible

    def test_filtered_scan(self, db):
        result, scanned, excluded, reads = run(
            db, "SELECT id FROM visits WHERE grp = 'g1' AND salary > 1650", "city")
        scan = result.pipeline.find("SeqScan")
        # Excluded rows are counted as scanned and never reach the filter.
        assert scanned == scan.examined == 900
        assert reads == decoded_records(db, "city") == DECODED["city"]
        assert excluded == scan.rows_excluded_not_computable == 300
        assert scan.stats.rows_out == 50
        assert result.pipeline.find("Filter") is None
        assert len(result.rows) == 50

    def test_explain_analyze_operator_rows(self, db):
        lines = [row[0] for row in db.execute(
            "EXPLAIN ANALYZE SELECT id FROM visits WHERE grp = 'g1'",
            purpose="address").rows]
        scan_line = next(line for line in lines[1:] if "SeqScan" in line)
        assert scan_line.endswith("(examined=900 excluded=600 pages_skipped=7)")
        assert "filter (grp = 'g1') (rows=60)" in scan_line

    def test_excluded_rows_reported_when_nothing_is_visible(self, db):
        db.advance_time(hours=2)        # the last wave leaves address level too
        result, scanned, excluded, reads = run(db, "SELECT id FROM visits", "address")
        assert result.rows == []
        assert scanned == excluded == 900
        # every page's floor is over the cap: not one record decoded, every
        # page run — consecutive keys on one page — skipped
        assert reads == 0
        pages = list(map(db._store_for("visits").page_of, range(1, 3 * WAVE + 1)))
        runs = 1 + sum(page != after for page, after in zip(pages, pages[1:]))
        assert result.pipeline.find("SeqScan").pages_skipped == runs


class TestEarlyTermination:
    def test_limit_over_reads_at_most_one_page(self, db):
        store = db._store_for("visits")
        fullest_page = max(Counter(map(store.page_of, store.row_keys())).values())
        # Purpose "address" sees ids 601–900 only: the scan drops 600 rows on
        # their headers or their pages' floors, then stops 5 rows into the
        # visible wave, having decoded at most one page past the pages it
        # could not skip.
        result, scanned, excluded, reads = run(
            db, "SELECT id FROM visits LIMIT 5", "address")
        scan = result.pipeline.find("SeqScan")
        assert result.rows == [(601,), (602,), (603,), (604,), (605,)]
        assert scan.stats.rows_out == 5
        assert excluded == scan.rows_excluded_not_computable == 600
        assert scanned == 605
        skipped = decoded_records(db, "region") - decoded_records(db, "address")
        assert 605 - skipped <= reads <= 605 - skipped + fullest_page


class TestRowsMatchTheModel:
    @pytest.mark.parametrize("purpose", sorted(CAPS))
    @pytest.mark.parametrize("sql", [
        "SELECT id, location FROM visits",
        "SELECT id FROM visits WHERE grp = 'g1' AND salary > 1650",
        "SELECT id FROM visits LIMIT 5"])
    def test_the_counted_rows_are_the_models(self, db, sql, purpose):
        got = db.execute(sql, purpose=purpose).rows
        assert sorted(got) == sorted(db.model.execute(sql, purpose=purpose).rows)


class TestRunsCrossTheOperators:
    """A drained consumer takes a scan's page runs whole, a lazy one row by
    row: ``EXPLAIN ANALYZE`` (which drains) reads what it read when every
    operator pulled one row at a time — the lines below were taken on the
    commit before runs crossed the operator boundary — and so does the same
    pipeline read lazily."""

    CASES = {
        "drained GROUP BY": (
            "SELECT grp, COUNT(*) AS n FROM visits GROUP BY grp", "address", [
                "Aggregate (grp, n) group by grp (rows=5) (est~5)",
                "  SeqScan on visits as visits accuracy[location@0, salary@None] (rows=300)"
                " (est~900) (examined=900 excluded=600 pages_skipped=7)"]),
        "range with ORDER BY": (
            "SELECT id, location FROM visits WHERE salary >= 1400 AND salary < 1800 "
            "ORDER BY id", "city", [
                "Sort (id) (rows=400) (est~445)",
                "  Project (id, location) (rows=400) (est~445)",
                "    SeqScan on visits as visits accuracy[location@1, salary@None] filter "
                "(salary >= 1400 AND salary < 1800) (rows=400) (est~445) (examined=900 "
                "excluded=300 pages_skipped=5)"]),
        "join whose build side is a scan": (
            "SELECT visits.id, labels.label FROM visits JOIN labels "
            "ON visits.grp = labels.grp WHERE visits.salary > 1500", "region", [
                "Project (id, label) (rows=240) (est~400)",
                "  HashJoin (inner labels on visits.grp = labels.grp, build=right, "
                "probe=scan filter) (rows=240) (est~400)",
                "    SeqScan on visits as visits accuracy[location@2, salary@None] probe (grp "
                "in build keys) filter (visits.salary > 1500) (rows=240) (est~400) "
                "(examined=900 excluded=0 pages_skipped=0)",
                "    SeqScan on labels as labels (rows=3) (est~3) (examined=3 excluded=0 "
                "pages_skipped=0)"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_explain_analyze_counts_are_unchanged(self, db, case):
        sql, purpose, expected = self.CASES[case]
        db.execute("CREATE TABLE labels (gid INT PRIMARY KEY, grp TEXT, label TEXT)")
        db.executemany("INSERT INTO labels VALUES (?, ?, ?)",
                       [(i, f"g{i}", f"label {i}") for i in range(3)])
        explained = [row[0] for row in db.execute("EXPLAIN ANALYZE " + sql,
                                                  purpose=purpose).rows]
        plan = db.planner.plan_physical(db.prepare(sql).query, db.catalog.purpose(purpose))
        assert explained == plan.describe().splitlines() + expected
        _columns, root = db.executor.build(plan)
        for _run in root.runs(lazy):
            pass
        assert root.explain_lines(analyze=True) == expected
