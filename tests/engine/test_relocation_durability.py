"""A degradation step that *relocates* a record must make both pages durable.

Seeded reproducer of finding 7 of ``benchmarks/e2e/README.md``.  A salary
degrades from an integer to a (longer) range label; on a page that is full *in
total* the record no longer fits and ``HeapFile.update`` moves it to another
page, zeroing the old slot in the buffer pool only.  Before the fix the wave
flushed just the pages its records landed on, then scrubbed the WAL:
abandoning the process left the accurate images on disk in the vacated page
with nothing in the log to redo — and where that page is scanned after the new
one, ``recover()`` brought the row back one level *less* degraded.

A page whose room is merely scattered is the common case and no relocation at
all: it compacts itself around the grown record (the mirror test below).
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.storage.serialization import encode_value

PAGE_SIZE = 512
#: Record sizes of this fixture: a filler (NULL salary — it degrades in level
#: only, so it never changes size) is 44 bytes plus its note, a young row 52
#: bytes before its first step and 59 after.
FILLER, YOUNG_ROW, SLOT = 44, 52, 4
#: What three wide fillers leave of a page for the fourth record.
LEFT_BY_THREE = PAGE_SIZE - 4 - 3 * (SLOT + FILLER + 60) - SLOT
#: Four pages of four fillers.  The last filler of a page is cut so that page
#: 0 ends up full and pages 1–3 keep room for exactly one young row, with
#: 3 bytes to spare: less than the 7 the row grows by.
PAGES = range(4)
YOUNG = range(101, 104)
#: How the young rows are inserted: by one statement (one cohort) or one a
#: second (a cohort each).  Either way their first step is one wave.
COHORTS = ("one", "per_row")


def _fillers():
    rows = []
    for page in PAGES:
        spare = 3 if page == 0 else YOUNG_ROW + 3
        rows += [(10 * page + n, "x" * 60, None) for n in (1, 2, 3)]
        rows.append((10 * page + 4, "x" * (LEFT_BY_THREE - SLOT - spare - FILLER), None))
    return rows


def _salary(row_id: int) -> int:
    return 41_003 + 7 * row_id       # unique per row, so its bytes are traceable


def _open(data_dir) -> InstantDB:
    return InstantDB(data_dir=str(data_dir), page_size=PAGE_SIZE)


def _young_cohort_on_full_pages(data_dir, cohorts):
    """Pages 1–3 hold four fillers and one young row each and are full in
    total, page 0 four fillers; everything is on disk.  Returns the engine
    and each young row key's page."""
    db = _open(data_dir)
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="salary_lcp"))
    db.execute("CREATE TABLE pay (id INT PRIMARY KEY, note TEXT, salary INT "
               "DEGRADABLE DOMAIN salary POLICY salary_lcp)")
    # the fillers sit at level 1 when holes are cut: a purpose that sees them
    db.execute("DECLARE PURPOSE coarse SET ACCURACY LEVEL range100 FOR pay.salary")
    store = db.table_store("pay")
    db.executemany("INSERT INTO pay VALUES (?, ?, ?)", _fillers())
    assert store.heap.page_count == len(PAGES)
    db.advance_time(hours=2)          # fillers take their step now, not later
    young = [(row_id, "", _salary(row_id)) for row_id in YOUNG]
    if cohorts == "one":
        db.executemany("INSERT INTO pay VALUES (?, ?, ?)", young)
    else:
        for row in young:
            db.execute("INSERT INTO pay VALUES (?, ?, ?)", params=row)
            db.advance_time(seconds=1)
    young_keys = [key for key in store.row_keys()
                  if store.read(key).values["id"] in YOUNG]
    pages = {key: store.page_of(key) for key in young_keys}
    assert sorted(pages.values()) == [1, 2, 3]      # one each, none on page 0
    return db, pages


def _abandon_and_recover(db, data_dir):
    """No close(), no checkpoint: reopen from what is on disk, and check the
    recovered levels and that ``pages.db`` holds no accurate salary."""
    expected = db.level_histogram("pay", "salary")
    assert set(expected) == {1}
    db.daemon.pause()
    reopened = _open(data_dir)
    reopened.recover()
    assert reopened.level_histogram("pay", "salary") == expected
    with open(os.path.join(str(data_dir), "pages.db"), "rb") as handle:
        raw = handle.read()
    assert [row_id for row_id in YOUNG
            if encode_value(_salary(row_id)) in raw] == []


@pytest.mark.parametrize("cohorts", COHORTS)
def test_relocating_degrade_leaves_no_accurate_image_behind(tmp_path, cohorts):
    db, pages_before = _young_cohort_on_full_pages(tmp_path, cohorts)
    store = db.table_store("pay")
    # room for the grown images opens on page 0 only
    assert db.execute("DELETE FROM pay WHERE id IN (2, 3)", purpose="coarse") == 2
    db.checkpoint()                   # accurate images are on disk, pages 1–3

    db.advance_time(hours=2)          # the young cohort's first step: it grows
    # Meaningful only if every young record left its page (so no in-place
    # rewrite flushes it anyway) for an *earlier* one: recovery scans pages
    # in order and keeps the image it meets last.
    assert all(store.page_of(key) < page for key, page in pages_before.items())
    assert store.stats.relocations == len(YOUNG)
    _abandon_and_recover(db, tmp_path)


@pytest.mark.parametrize("cohorts", COHORTS)
def test_page_with_holes_keeps_its_growing_records(tmp_path, cohorts):
    """The mirror case: the same full pages, but each has a hole (a deleted
    filler behind the live records — no contiguous room).  Every young row
    grows where it is, and the step is as durable as a relocating one."""
    db, pages_before = _young_cohort_on_full_pages(tmp_path, cohorts)
    store = db.table_store("pay")
    assert db.execute("DELETE FROM pay WHERE id IN (11, 21, 31)", purpose="coarse") == 3
    db.checkpoint()

    db.advance_time(hours=2)
    assert store.stats.relocations == 0
    assert {key: store.page_of(key) for key in pages_before} == pages_before
    store.heap.check()
    _abandon_and_recover(db, tmp_path)
