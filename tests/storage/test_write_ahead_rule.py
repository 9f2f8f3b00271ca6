"""No heap page reaches disk ahead of the log record recovery would undo.

Recovery undoes a loser transaction from what the log holds: the images
of its ``DELTA`` records.  A page written before such a record
is durable carries a change no undo can find.  Seeded reproducer: an open
transaction inserts a row, then a ``DELETE`` in the same transaction erases
another row of that page and flushes the page (a secure erase is durable at
statement time); the process dies before the commit.  Without the rule the
page held the uncommitted accurate salary while the log ended before its
``DELTA``, and ``recover()`` brought the row back.

The buffer pool keeps the rule (``BufferPool._write_back``): every dirty frame
carries the LSN of the last record that changed it, and the log is flushed up
to it first.  Pages an insert batch fills are pinned in the pool until their
records are appended, so a batch that outgrows the pool cannot write its own
earlier page unlogged either.
"""

import pytest

from repro import AttributeLCP, DurabilityError, FaultPlan, InstantDB
from repro.core.domains import build_salary_ranges
from repro.storage.buffer import BufferPool


def _open(data_dir, **options) -> InstantDB:
    return InstantDB(data_dir=str(data_dir), **options)


def _pay(db: InstantDB) -> None:
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"], name="salary_lcp"))
    db.execute("CREATE TABLE pay (id INT PRIMARY KEY, salary INT "
               "DEGRADABLE DOMAIN salary POLICY salary_lcp)")
    db.execute("DECLARE PURPOSE p SET ACCURACY LEVEL range10000 FOR pay.salary")


def _recovered(data_dir, **options):
    """Reopen from what is on disk (no close, no checkpoint) and read ``pay``."""
    twin = _open(data_dir, **options)
    twin.recover()
    return sorted(twin.execute("SELECT id, salary FROM pay").rows)


def _delete_beside_an_open_insert(data_dir):
    """The reproducer: returns the abandoned engine's log and what the
    recovered engine reads."""
    db = _open(data_dir)
    _pay(db)
    db.execute("INSERT INTO pay VALUES (1, 50000)")
    db.advance_time(hours=72)
    txn = db.begin()
    db.execute("INSERT INTO pay VALUES (2, 60000)", txn=txn)
    assert db.wal.flushed_lsn < db.wal.last_lsn        # the insert's DELTA is not durable
    assert db.execute("DELETE FROM pay WHERE id = 1", txn=txn, purpose="p") == 1
    db.daemon.pause()                  # abandoned: no commit, no close
    return db, _recovered(data_dir)


def test_an_uncommitted_insert_does_not_survive_a_page_flush(tmp_path):
    db, rows = _delete_beside_an_open_insert(tmp_path)
    assert db.wal.flushed_lsn == db.wal.last_lsn      # the page flush forced the log
    assert rows == []


def test_dropping_the_log_flush_brings_the_uncommitted_row_back(tmp_path, monkeypatch):
    """The sabotage: ``_write_back`` without the log flush.  The reproducer
    catches it — the uncommitted accurate salary is back after recovery."""
    def write_back(self, page_id, page):
        self._lsn.pop(page_id, None)
        self.pager.write_page(page_id, page)
        self.stats.flushes += 1

    monkeypatch.setattr(BufferPool, "_write_back", write_back)
    _db, rows = _delete_beside_an_open_insert(tmp_path)
    assert rows == [(2, 60000)]


@pytest.mark.parametrize("read", [False, True], ids=["crash", "read-then-crash"])
@pytest.mark.parametrize("batch", [40, 400])
def test_a_batch_that_outgrows_a_two_frame_pool_leaves_no_uncommitted_row(
        tmp_path, batch, read):
    """A two-frame pool: the batch fills more pages than the pool holds, so
    its pages are written while its transaction is open — after their
    ``DELTA`` records are durable, never before.  A crash right after
    the batch (or after a read that evicts the rest), then no row of the
    batch after ``recover()``."""
    db = _open(tmp_path, page_size=512, buffer_capacity=2)
    _pay(db)
    db.executemany("INSERT INTO pay VALUES (?, ?)", [(i, 1_000 + i) for i in range(10)])
    store = db.table_store("pay")
    txn = db.begin()
    db.executemany("INSERT INTO pay VALUES (?, ?)",
                   [(i, 90_000 + i) for i in range(100, 100 + batch)], txn=txn)
    pages = store.heap.page_count
    assert pages > 2
    if read:
        db.execute("SELECT COUNT(*) FROM pay", txn=txn)    # reads evict the batch's pages
        assert db.buffer_pool.stats.evictions >= pages - 2
    assert len(db.buffer_pool) == 2
    db.daemon.pause()
    assert _recovered(tmp_path, page_size=512) == [(i, 1_000 + i) for i in range(10)]


def test_a_held_page_stays_in_the_pool_until_its_record_is_logged(tmp_path):
    """Inside ``unlogged`` the pool runs over its capacity instead of writing
    a changed page; at its end the page LSN is stamped and the pool evicts
    back down, the log flushed first."""
    db = _open(tmp_path, page_size=512, buffer_capacity=2)
    _pay(db)
    pool, store = db.buffer_pool, db.table_store("pay")
    writes = []
    write_page = pool.pager.write_page
    pool.pager.write_page = lambda page_id, page: (
        writes.append((page_id, db.wal.flushed_lsn, db.wal.last_lsn)), write_page(page_id, page))
    txn = db.begin()
    db.executemany("INSERT INTO pay VALUES (?, ?)", [(i, 90_000 + i) for i in range(60)],
                   txn=txn)
    assert store.heap.page_count > 2 and len(pool) == 2
    # each page went out after the log was durable up to the batch's last record
    assert writes and all(flushed == last for _page, flushed, last in writes)


def test_a_failed_log_flush_writes_nothing_and_keeps_every_frame(tmp_path):
    """The log flush a write-back needs fails: no page is written, every
    frame stays dirty with its page LSN, and the next write-back flushes the
    log and then the pages."""
    plan = FaultPlan(7)
    db = _open(tmp_path, page_size=512, buffer_capacity=2, fault_plan=plan)
    _pay(db)
    pool = db.buffer_pool
    writes = []
    write_page = pool.pager.write_page
    pool.pager.write_page = lambda page_id, page: (
        writes.append(db.wal.flushed_lsn), write_page(page_id, page))
    txn = db.begin()
    plan.fail_once("wal.flush", "enospc")
    with pytest.raises(DurabilityError):
        db.executemany("INSERT INTO pay VALUES (?, ?)", [(i, 90_000 + i) for i in range(60)],
                       txn=txn)
    frames = list(pool.resident_pages())
    assert writes == [] and len(frames) > pool.capacity
    assert all(pool.is_dirty(page) and pool._lsn[page] == db.wal.last_lsn for page in frames)
    pool.flush_all()
    assert len(writes) == len(frames) and set(writes) == {db.wal.last_lsn}
