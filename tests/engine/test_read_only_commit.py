"""Log-free read-only commits.

BEGIN is lazy: the WAL writes it just ahead of a transaction's first record.
A transaction that logged nothing of its own therefore leaves no BEGIN, no
COMMIT/ABORT and forces no flush — also while another session's writes sit
unflushed in the log — and recovery never hears of it.
"""

import pytest

from repro import InstantDB, connect
from repro.core.errors import TransactionAborted
from repro.storage.wal import LogRecordType


@pytest.fixture
def db(tmp_path):
    engine = InstantDB(data_dir=str(tmp_path))
    engine.execute("CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
    engine.execute("CREATE TABLE b (id INT PRIMARY KEY, v TEXT)")
    engine.executemany("INSERT INTO a VALUES (?, ?)",
                       [(i, f"v{i}") for i in range(10)])
    return engine


def log_counts(db):
    return db.wal.stats.appended, db.wal.stats.flushed


def record_types(db, txn_id):
    return [record.record_type for record in db.wal if record.txn_id == txn_id]


class TestReadOnlyStatementsLeaveTheLogAlone:
    def test_autocommit_select(self, db):
        before = log_counts(db)
        assert len(db.execute("SELECT * FROM a WHERE id = 3").rows) == 1
        assert len(db.execute("SELECT * FROM a").rows) == 10
        assert log_counts(db) == before

    def test_explain_and_explain_analyze(self, db):
        before = log_counts(db)
        db.execute("EXPLAIN SELECT * FROM a WHERE id = 3")
        db.execute("EXPLAIN ANALYZE SELECT * FROM a WHERE v = 'v3'")
        db.execute("EXPLAIN ANALYZE DELETE FROM a WHERE id = 3")
        assert log_counts(db) == before
        assert db.row_count("a") == 10

    def test_empty_commit_and_rollback(self, db):
        before = log_counts(db)
        db.commit(db.begin())
        db.rollback(db.begin())
        reader = db.begin()
        db.execute("SELECT * FROM a", txn=reader)
        db.rollback(reader)
        assert log_counts(db) == before
        assert db.transactions.stats.committed >= 1
        assert db.transactions.stats.aborted == 2

    def test_connection_commit_after_reads(self, db):
        conn = connect(engine=db)
        before = log_counts(db)
        conn.execute("SELECT * FROM a WHERE id = ?", (4,)).fetchall()
        conn.commit()
        conn.execute("SELECT * FROM a").fetchone()
        conn.rollback()
        assert log_counts(db) == before

    def test_dml_matching_no_row(self, db):
        before = log_counts(db)
        assert db.execute("DELETE FROM a WHERE id = 404") == 0
        assert db.execute("UPDATE a SET v = 'x' WHERE id = 404") == 0
        assert log_counts(db) == before

    def test_reader_aborted_on_a_lock_conflict(self, db):
        writer = db.begin()
        db.execute("INSERT INTO a VALUES (100, 'w')", txn=writer)
        before = log_counts(db)
        reader = db.begin()
        with pytest.raises(TransactionAborted):
            db.execute("SELECT * FROM a", txn=reader)
        assert log_counts(db) == before
        assert record_types(db, reader.txn_id) == []
        db.commit(writer)


class TestWritersStillLog:
    def test_begin_rides_ahead_of_the_first_record(self, db):
        txn = db.begin()
        db.execute("SELECT * FROM a", txn=txn)        # nothing yet
        assert record_types(db, txn.txn_id) == []
        flushed = db.wal.stats.flushed
        db.execute("INSERT INTO b VALUES (1, 'x')", txn=txn)
        db.execute("INSERT INTO b VALUES (2, 'y')", txn=txn)
        db.commit(txn)
        assert record_types(db, txn.txn_id) == [
            LogRecordType.BEGIN, LogRecordType.INSERT, LogRecordType.INSERT,
            LogRecordType.COMMIT]
        begin = next(record for record in db.wal
                     if record.txn_id == txn.txn_id)
        assert begin.timestamp == txn.started_at
        assert db.wal.stats.flushed == flushed + 1
        assert db.wal.flushed_lsn == db.wal.last_lsn

    def test_ddl_then_commit_is_durable(self, tmp_path):
        conn = connect(str(tmp_path / "ddl"))
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        conn.commit()                     # logs the CATALOG record, flushes
        engine = conn.engine
        assert engine.wal.flushed_lsn == engine.wal.last_lsn > 0
        engine.daemon.pause()             # abandon
        reopened = InstantDB(data_dir=str(tmp_path / "ddl"))
        reopened.recover()
        assert reopened.tables() == ["t"]


class TestInterleavedSessions:
    def test_only_the_writer_reaches_the_log(self, db):
        reader = db.begin()
        writer = db.begin()
        db.execute("SELECT * FROM a WHERE id = 1", txn=reader)
        db.execute("INSERT INTO b VALUES (1, 'x')", txn=writer)
        db.execute("SELECT * FROM a", txn=reader)
        # The writer's records are appended but not yet flushed; a read-only
        # commit beside them must neither add to the log nor flush it.
        unflushed = db.wal.last_lsn - db.wal.flushed_lsn
        assert unflushed > 0
        before = log_counts(db)
        db.commit(reader)
        assert log_counts(db) == before
        assert db.wal.last_lsn - db.wal.flushed_lsn == unflushed
        db.commit(writer)
        assert db.wal.stats.flushed == before[1] + 1
        assert record_types(db, reader.txn_id) == []
        assert record_types(db, writer.txn_id) == [
            LogRecordType.BEGIN, LogRecordType.INSERT, LogRecordType.COMMIT]

    def test_reader_begun_between_the_writers_begin_and_first_record(self, db):
        writer = db.begin()
        reader = db.begin()
        db.execute("SELECT * FROM a", txn=reader)
        db.execute("INSERT INTO b VALUES (1, 'x')", txn=writer)
        db.rollback(reader)
        db.commit(writer)
        second = db.begin()
        db.execute("INSERT INTO b VALUES (2, 'y')", txn=second)
        db.commit(second)
        assert record_types(db, reader.txn_id) == []
        for txn in (writer, second):
            assert record_types(db, txn.txn_id) == [
                LogRecordType.BEGIN, LogRecordType.INSERT,
                LogRecordType.COMMIT]

    def test_recovery_sees_nothing_of_the_reader(self, db, tmp_path):
        reader = db.begin()
        writer = db.begin()
        loser = db.begin()
        db.execute("SELECT * FROM a", txn=reader)
        db.execute("INSERT INTO b VALUES (1, 'x')", txn=writer)
        db.commit(reader)
        db.commit(writer)
        db.execute("INSERT INTO b VALUES (2, 'never committed')", txn=loser)
        db.wal.flush()
        db.daemon.pause()                 # abandon with the loser open
        reopened = InstantDB(data_dir=str(tmp_path))
        report = reopened.recover().recovery
        assert reader.txn_id not in report.committed_txns | report.loser_txns
        assert writer.txn_id in report.committed_txns
        assert report.loser_txns == {loser.txn_id}
        assert reopened.execute("SELECT id FROM b").rows == [(1,)]
