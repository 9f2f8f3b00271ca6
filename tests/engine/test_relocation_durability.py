"""A degradation step that *relocates* a record must make both pages durable.

Seeded reproducer of finding 7 of ``benchmarks/e2e/README.md``.  A salary
degrades from an integer to a (longer) range label; on a full page the record
no longer fits and ``HeapFile.update`` moves it to another page, zeroing the
old slot in the buffer pool only.  Before the fix the wave flushed just the
pages its records landed on, then scrubbed the WAL: abandoning the process
left the accurate images on disk in the vacated page with nothing in the log
to redo — and where that page is scanned after the new one, ``recover()``
brought the row back one level *less* degraded.
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.storage.serialization import encode_value

PAGE_SIZE = 512
#: Wide rows without a salary: four fill a page and leave ~70 bytes, the
#: thirteenth opens page 3.  NULL degrades in level only, so they never move.
FILLERS = range(1, 14)
#: Narrow rows with a salary: inserts prefer the last page, so these seven
#: pack page 3 to the brim and leave the earlier pages' slack untouched.
YOUNG = range(101, 108)


def _salary(row_id: int) -> int:
    return 41_003 + 7 * row_id       # unique per row, so its bytes are traceable


#: One mode per store path that rewrites a degraded record: ``degrade_many``
#: (the default wave), ``degrade`` (per-step baseline) and
#: ``_degrade_many_columnar`` (a columnarized table).
MODES = {"batch": {}, "per_step": {"batch_degradation": False}, "columnar": {}}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_relocating_degrade_leaves_no_accurate_image_behind(tmp_path, mode):
    def _open(data_dir) -> InstantDB:
        return InstantDB(data_dir=str(data_dir), page_size=PAGE_SIZE,
                         **MODES[mode])

    db = _open(tmp_path)
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="salary_lcp"))
    db.execute("CREATE TABLE pay (id INT PRIMARY KEY, note TEXT, salary INT "
               "DEGRADABLE DOMAIN salary POLICY salary_lcp)")
    if mode == "columnar":
        db.columnarize("pay")
    store = db.table_store("pay")
    db.executemany("INSERT INTO pay VALUES (?, ?, ?)",
                   [(row_id, "x" * 60, None) for row_id in FILLERS])
    db.advance_time(hours=2)          # fillers take their step now, not later
    db.executemany("INSERT INTO pay VALUES (?, ?, ?)",
                   [(row_id, "", _salary(row_id)) for row_id in YOUNG])
    db.checkpoint()                   # accurate images are on disk, in page 3
    young_keys = [key for key in store.row_keys()
                  if store.read(key).values["id"] in YOUNG]
    pages_before = {key: store.page_of(key) for key in young_keys}
    assert len(set(pages_before.values())) == 1

    db.advance_time(hours=2)          # the young cohort's first step: it grows
    # Meaningful only if every young record left its page (so no in-place
    # rewrite flushes it anyway) and some moved to an *earlier* page: recovery
    # scans pages in order and keeps the image it meets last.
    assert all(store.page_of(key) != pages_before[key] for key in young_keys)
    assert any(store.page_of(key) < pages_before[key] for key in young_keys)
    expected = db.level_histogram("pay", "salary")
    assert expected == {1: len(FILLERS) + len(YOUNG)}

    db.daemon.pause()                 # abandon: no close(), no checkpoint
    reopened = _open(tmp_path)
    reopened.recover()
    assert reopened.level_histogram("pay", "salary") == expected

    with open(os.path.join(str(tmp_path), "pages.db"), "rb") as handle:
        raw = handle.read()
    assert [row_id for row_id in YOUNG
            if encode_value(_salary(row_id)) in raw] == []
