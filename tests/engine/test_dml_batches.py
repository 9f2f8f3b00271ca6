"""A row changes one way: UPDATE, DELETE and their abort-undo are one batch a
statement, written through the store's one writer of existing records.

On a 500-row table with 50 rows matched:

* a two-column UPDATE appends one ``DELTA`` record a page, each row in it
  once, as a −1 with its whole before image and a +1 with its whole after
  image, and reads each row once beyond the match scan;
* a DELETE scrubs the log in one pass and syncs the page file once;
* a statement matching nothing appends, reads and syncs nothing;
* a rolled-back UPDATE leaves values, index lookups and statistics as they
  were, and recovery undoes an uncommitted one and redoes a committed one.
"""

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.storage.wal import delta_entries

ROWS, OWNERS = 500, 10
ADDRESSES = ("1 Main Street, Paris", "2 Station Road, Lyon", "10 Downing Street, London")
MATCHED = "WHERE owner = 3"
UPDATE = f"UPDATE visits SET score = ?, note = ? {MATCHED}"


def build(data_dir=None):
    db = InstantDB(data_dir=None if data_dir is None else str(data_dir))
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, transitions=["1 h", "1 d", "1 month", "3 months"],
                                    name="location_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, owner INT, score INT, note TEXT, "
               "location TEXT DEGRADABLE DOMAIN location POLICY location_lcp)")
    db.execute("CREATE INDEX idx_score ON visits (score) USING btree")
    db.executemany("INSERT INTO visits VALUES (?, ?, ?, ?, ?)",
                   [(i, i % OWNERS, i, f"note {i}", ADDRESSES[i % 3]) for i in range(ROWS)])
    return db


def matched(db):
    return sorted(db.execute(f"SELECT id, score, note FROM visits {MATCHED}").rows)


def statistics(db):
    table = db.statistics.table("visits")
    return table.row_count, {name: dict(column.counts) for name, column in table.columns.items()}


def score_lookup(db, score):
    return sorted(db.catalog.table("visits").indexes["idx_score"].index.search(score))


class Costs:
    """What one statement cost: log appends, store reads beyond those of the
    match scan (a SELECT of the same WHERE clause reads the same), page-file
    syncs and log scrub passes."""

    def __init__(self, db, monkeypatch):
        self.db, self.store, self.syncs = db, db.table_store("visits"), 0
        sync = db.pager.sync

        def counted_sync():
            self.syncs += 1
            sync()

        monkeypatch.setattr(db.pager, "sync", counted_sync)

    def of(self, sql, params=(), where=MATCHED):
        stats, reads = self.db.wal.stats, self.store.stats.reads
        self.db.execute(f"SELECT id FROM visits {where}")
        scan_reads, reads = self.store.stats.reads - reads, self.store.stats.reads
        appended, updates = stats.appended, stats.appended_by_type["DELTA"]
        scrubs, self.syncs = stats.scrub_passes, 0
        count = self.db.execute(sql, params=params)
        return {
            "count": count,
            "appended": stats.appended - appended,
            "updates": stats.appended_by_type["DELTA"] - updates,
            "reads": self.store.stats.reads - reads - scan_reads,
            "scrub_passes": stats.scrub_passes - scrubs,
            "syncs": self.syncs,
        }


def test_a_two_column_update_is_one_record_and_one_read_a_row(monkeypatch):
    db = build()
    last = db.wal.last_lsn
    cost = Costs(db, monkeypatch).of(UPDATE, (7777, "changed"))
    assert cost["count"] == ROWS // OWNERS == 50
    assert cost["reads"] == 50              # the match hands up keys, not rows
    assert matched(db) == [(i, 7777, "changed") for i in range(3, ROWS, OWNERS)]
    store = db.table_store("visits")
    keys = [key for key in store.row_keys() if store.read(key).values["owner"] == 3]
    # One a page, each row once in it: not one a row and column.
    assert cost["updates"] == len({store.page_of(key) for key in keys}) < 50
    entries = [entry for record in db.wal.records() if record.lsn > last
               and record.record_type.name == "DELTA" for entry in delta_entries(record)]
    assert sorted((key, weight) for key, weight, _image in entries) == \
        sorted((key, weight) for key in keys for weight in (-1, 1))
    assert all(image for _key, _weight, image in entries)


def test_a_delete_is_one_scrub_pass_and_one_sync(monkeypatch):
    db = build()
    cost = Costs(db, monkeypatch).of(f"DELETE FROM visits {MATCHED}")
    assert cost["count"] == 50
    assert (cost["scrub_passes"], cost["syncs"]) == (1, 1)
    assert matched(db) == []
    assert db.execute("SELECT COUNT(*) FROM visits").rows == [(ROWS - 50,)]
    assert statistics(db)[0] == ROWS - 50


@pytest.mark.parametrize("sql", ["UPDATE visits SET score = 1, note = 'x'", "DELETE FROM visits"])
def test_a_statement_matching_nothing_touches_nothing(monkeypatch, sql):
    db = build()
    cost = Costs(db, monkeypatch).of(f"{sql} WHERE owner = 99", where="WHERE owner = 99")
    assert cost == {"count": 0, "appended": 0, "updates": 0, "reads": 0,
                    "scrub_passes": 0, "syncs": 0}


def test_rollback_restores_values_index_lookups_and_statistics():
    db = build()
    rows, stats = matched(db), statistics(db)
    lookups = {score: score_lookup(db, score) for score, in db.execute(
        f"SELECT score FROM visits {MATCHED}").rows}
    txn = db.begin()
    assert db.execute(UPDATE, params=(7777, "changed"), txn=txn) == 50
    assert len(score_lookup(db, 7777)) == 50
    db.rollback(txn)
    assert matched(db) == rows
    assert score_lookup(db, 7777) == []
    assert {score: score_lookup(db, score) for score in lookups} == lookups
    assert db.execute("SELECT id FROM visits WHERE score = 13").rows == [(13,)]
    assert statistics(db) == stats


@pytest.mark.parametrize("committed", [False, True])
def test_recovery_undoes_an_uncommitted_update_and_redoes_a_committed_one(tmp_path, committed):
    db = build(tmp_path)
    rows = matched(db)
    if committed:
        db.execute(UPDATE, params=(7777, "changed"))
    else:
        txn = db.begin()
        db.execute(UPDATE, params=(7777, "changed"), txn=txn)
        db.wal.flush()
        db.buffer_pool.flush_all()      # the updated pages are on disk
    db.daemon.pause()                   # abandon without close()
    reopened = InstantDB(data_dir=str(tmp_path))
    report = reopened.recover().recovery
    if committed:
        assert report.redone_updates == 50
        assert matched(reopened) == [(i, 7777, "changed") for i, _score, _note in rows]
        assert len(score_lookup(reopened, 7777)) == 50
    else:
        assert report.undone_updates == 50
        assert matched(reopened) == rows
        assert score_lookup(reopened, 7777) == []
