"""The heap reuses the space degradation frees (count-based, no timing).

Every tuple is rewritten at each degradation step and finally removed (or
kept, suppressed and small).  The zeroed bytes must come back into use: a
table that refills stays the size of one filling, an insert looks at one page
however many the table has, and kept-suppressed rows leave holes that new
rows move into.
"""

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.engine import ddl
from repro.query.parser import parse_script

PAGE_SIZE = 512
COHORT = 120
_CREATE = ("CREATE TABLE pay (id INT PRIMARY KEY, note TEXT, salary INT "
           "DEGRADABLE DOMAIN salary POLICY salary_lcp)")


def _engine(remove_on_final: bool) -> InstantDB:
    db = InstantDB(page_size=PAGE_SIZE)
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="salary_lcp"))
    schema = ddl.build_schema(parse_script(_CREATE)[0], db.registry)
    db.create_table(schema, remove_on_final=remove_on_final)
    return db


def _insert_cohort(db: InstantDB, number: int) -> None:
    db.executemany("INSERT INTO pay VALUES (?, ?, ?)",
                   [(number * COHORT + n, "n" * (n % 7), 30_000 + 13 * n)
                    for n in range(COHORT)])


def _gets(db: InstantDB) -> int:
    stats = db.buffer_pool.stats
    return stats.hits + stats.misses


def test_refilled_table_stays_the_size_of_one_filling():
    db = _engine(remove_on_final=True)
    store = db.table_store("pay")
    pages_after = []
    for cycle in range(5):
        _insert_cohort(db, cycle)
        db.advance_time(days=130)           # every step, then the removal
        assert db.row_count("pay") == 0
        pages_after.append(db.pager.num_pages())
        store.heap.check()
    assert pages_after[4] == pages_after[1]
    assert db.stats.rows_removed_by_policy == 5 * COHORT


def test_insert_looks_at_one_page_however_many_the_table_has():
    """Guards against a page walk coming back: buffer-pool gets per inserted
    row do not grow with the table."""
    db = _engine(remove_on_final=False)
    store = db.table_store("pay")
    per_row = []
    for cohort in range(6):
        before = _gets(db)
        _insert_cohort(db, cohort)
        per_row.append((_gets(db) - before) / COHORT)
    assert store.heap.page_count >= 6 * 10      # the table did grow sixfold
    # the statement's gets for the row's own page, now and then a fresh page
    # — a walk over the table's pages would add page_count / rows-per-page
    assert per_row[-1] <= per_row[0] + 0.25


def test_new_rows_move_into_the_holes_of_kept_suppressed_rows():
    db = _engine(remove_on_final=False)
    store = db.table_store("pay")
    _insert_cohort(db, 0)
    db.advance_time(days=130)               # suppressed, kept, much smaller
    assert db.level_histogram("pay", "salary") == {4: COHORT}
    old_pages = set(store.heap.page_ids())
    old_keys = set(store.row_keys())
    _insert_cohort(db, 1)
    new_pages = [store.page_of(key) for key in store.row_keys() if key not in old_keys]
    assert len(new_pages) == COHORT
    reused = sum(page in old_pages for page in new_pages)
    assert reused >= COHORT // 4
    assert store.heap.page_count < 2 * len(old_pages)
    store.heap.check()
