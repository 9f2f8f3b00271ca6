"""A heap page names its table.

Which table owns a pager page is the page's own header field, the digest of
the table's name (``repro.storage.page.owner_of``), stamped when the heap
allocates the page and written with every image of it; the log keeps no
record of it.  Recovery hands each table the pages that name it:

* a row only its page holds — relocated by a growing wave onto a fresh page,
  its log images scrubbed, the log cut by a truncating checkpoint — comes
  back at its stored level;
* a dropped table's pages name no owner before the drop is logged, so a
  re-created table of the same name adopts no row of it — and the pager
  hands the pages out again while the engine runs: it does not grow;
* a page the pager allocated but the engine never wrote names nobody: no
  table adopts it, and the pager hands it out again before it grows;
* ``HeapFile.check()`` refuses a page that names another owner.
"""

import pytest

import repro
from repro import InstantDB
from repro.core.errors import StorageError
from repro.devtools import invariants
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.page import owner_of
from repro.storage.pager import MemoryPager
from repro.storage.wal import LogRecordType

from .test_relocation_durability import PAGE_SIZE, _open, _young_cohort_on_full_pages


def crash(db: InstantDB) -> None:
    """Abandon the engine without close(): no checkpoint, no final flush."""
    db.daemon.pause()


def test_a_row_only_its_page_holds_comes_back_at_its_stored_level(tmp_path):
    db, pages_before = _young_cohort_on_full_pages(tmp_path, "one")
    store = db.table_store("pay")
    fresh = db.pager.num_pages()             # the next page the pager hands out
    db.advance_time(hours=2)                 # the young rows grow off their full pages
    assert store.stats.relocations == len(pages_before)
    assert {store.page_of(key) for key in pages_before} == {fresh}
    db.checkpoint(truncate_wal=True)
    # Only the page holds them now: the wave scrubbed their images, the cut
    # took the rest of their log, and the checkpoint marker carries nothing.
    assert all(db.wal.records_for("pay", key) == [] for key in pages_before)
    assert [record.after for record in db.wal
            if record.record_type is LogRecordType.CHECKPOINT] == [None]
    rows = {key: store.read(key) for key in pages_before}
    assert {row.levels["salary"] for row in rows.values()} == {1}
    crash(db)

    reopened = _open(tmp_path)
    reopened.recover()
    recovered = reopened.table_store("pay")
    assert {key: recovered.read(key) for key in pages_before} == rows
    assert {recovered.page_of(key) for key in pages_before} == {fresh}
    assert recovered.heap.page_ids() == store.heap.page_ids()
    recovered.heap.check()


def test_a_re_created_table_adopts_none_of_the_dropped_ones_rows(tmp_path):
    """Drop, re-create and re-insert without a restart: the new rows take the
    lowest of the dropped table's pages — the pager does not grow — and the
    rest stay empty and nobody's; recovery finds the new rows alone."""
    db = InstantDB(data_dir=str(tmp_path), page_size=PAGE_SIZE)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(i, "old" * 20) for i in range(40)])
    db.checkpoint()                          # the old rows are on their pages
    old_pages = sorted(db.table_store("t").heap.page_ids())
    assert len(old_pages) > 1
    pages = db.pager.num_pages()
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(i, "new") for i in range(100, 103)])
    assert db.table_store("t").heap.page_ids() == old_pages[:1]
    assert db.pager.num_pages() == pages
    db.checkpoint()                          # the new rows are on their page too
    crash(db)

    reopened = InstantDB(data_dir=str(tmp_path), page_size=PAGE_SIZE)
    for page_id in old_pages[1:]:            # empty, and nobody's
        page = reopened.pager.read_page(page_id)
        assert (page.owner, page.slot_count, any(page.raw()[4:])) == (0, 0, False)
    reopened.recover()
    assert sorted(reopened.execute("SELECT id, note FROM t").rows) == \
        [(i, "new") for i in range(100, 103)]
    assert reopened.table_store("t").heap.page_ids() == old_pages[:1]
    assert reopened.pager.num_pages() == pages
    assert b"old" not in reopened.pager.raw_image()
    reopened.table_store("t").heap.check()


def test_a_page_never_written_is_adopted_by_no_table(tmp_path):
    db = InstantDB(data_dir=str(tmp_path), page_size=PAGE_SIZE)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(i, "x" * 50) for i in range(10)])
    db.checkpoint()
    store = db.table_store("t")
    written = store.heap.page_ids()
    # An open transaction's rows: their pages are allocated, never written back.
    repro.connect(engine=db).cursor().executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, "y" * 50) for i in range(10, 40)])
    unwritten = [page_id for page_id in store.heap.page_ids() if page_id not in written]
    assert len(unwritten) > 1
    crash(db)

    reopened = InstantDB(data_dir=str(tmp_path), page_size=PAGE_SIZE)
    pages = reopened.pager.num_pages()
    assert pages > max(unwritten)                            # the pager's empty image
    assert {reopened.pager.read_page(page_id).owner for page_id in unwritten} == {0}
    reopened.recover()
    recovered = reopened.table_store("t")
    assert recovered.heap.page_ids() == written
    assert sorted(id_ for id_, in reopened.execute("SELECT id FROM t").rows) == list(range(10))
    recovered.heap.check()
    # Nobody's pages are handed out again, lowest first, before the pager grows.
    reopened.executemany("INSERT INTO t VALUES (?, ?)", [(i, "z" * 50) for i in range(50, 60)])
    grown = [page_id for page_id in recovered.heap.page_ids() if page_id not in written]
    assert grown and grown == unwritten[:len(grown)] and reopened.pager.num_pages() == pages
    recovered.heap.check()


@pytest.fixture
def armed():
    """Arm the runtime checks (``REPRO_DEBUG_INVARIANTS=1``) for one test."""
    was_enabled = invariants.enabled()
    invariants.enable()
    yield
    if not was_enabled:
        invariants.disable()


def test_heap_check_refuses_a_page_of_another_owner(armed):
    heap = HeapFile(BufferPool(MemoryPager(page_size=PAGE_SIZE), capacity=4), name="t")
    record_id = heap.insert(b"record")
    heap.check()
    page = heap.buffer_pool.get_page(record_id.page_id)
    assert page.owner == heap.owner == owner_of("t") != 0
    page.owner = owner_of("u")
    with pytest.raises(StorageError, match="names another owner"):
        heap.check()
