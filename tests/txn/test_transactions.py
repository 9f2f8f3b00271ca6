"""Tests for the transaction manager."""

import pytest

from repro.core.errors import TransactionError
from repro.storage.wal import LogRecordType, WriteAheadLog, encode_delta
from repro.txn.transaction import TransactionManager, TransactionState


@pytest.fixture
def manager():
    return TransactionManager(WriteAheadLog())


class TestLifecycle:
    def test_begin_assigns_increasing_ids(self, manager):
        first = manager.begin()
        second = manager.begin()
        assert second.txn_id > first.txn_id
        assert manager.is_active(first.txn_id)

    def test_commit(self, manager):
        txn = manager.begin()
        manager.wal.append(LogRecordType.DELTA, txn.txn_id, table="t", row_key=1,
                           after=encode_delta([(1, 1, b"row")])[0])
        manager.commit(txn)
        assert txn.state is TransactionState.COMMITTED
        assert not manager.is_active(txn.txn_id)
        types = [record.record_type for record in manager.wal]
        assert types == [LogRecordType.BEGIN, LogRecordType.DELTA,
                         LogRecordType.COMMIT]
        assert manager.wal.stats.flushed == 1

    def test_abort_runs_undo_actions_in_reverse(self, manager):
        txn = manager.begin()
        order = []
        txn.on_abort(lambda: order.append("first"))
        txn.on_abort(lambda: order.append("second"))
        manager.abort(txn)
        assert order == ["second", "first"]
        assert txn.state is TransactionState.ABORTED

    def test_commit_skips_undo_actions(self, manager):
        txn = manager.begin()
        called = []
        txn.on_abort(lambda: called.append(True))
        manager.commit(txn)
        assert called == []

    def test_double_commit_rejected(self, manager):
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionError):
            manager.commit(txn)

    def test_abort_after_commit_rejected(self, manager):
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionError):
            manager.abort(txn)

    def test_double_abort_is_noop(self, manager):
        txn = manager.begin()
        manager.abort(txn)
        manager.abort(txn)
        assert manager.stats.aborted == 1

    def test_system_transactions_counted(self, manager):
        manager.begin(system=True)
        assert manager.stats.system_begun == 1

    def test_on_abort_requires_active(self, manager):
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionError):
            txn.on_abort(lambda: None)


class TestLockingHelpers:
    def test_locks_released_on_commit(self, manager):
        txn = manager.begin()
        assert manager.lock_exclusive(txn, "person")
        manager.commit(txn)
        other = manager.begin()
        assert manager.lock_exclusive(other, "person")

    def test_locks_released_on_abort(self, manager):
        txn = manager.begin()
        assert manager.lock_shared(txn, "person")
        manager.abort(txn)
        other = manager.begin()
        assert manager.lock_exclusive(other, "person")

    def test_conflicting_lock_returns_false(self, manager):
        writer = manager.begin()
        reader = manager.begin()
        assert manager.lock_exclusive(writer, "person")
        assert not manager.lock_shared(reader, "person")

    def test_conflict_counter(self, manager):
        manager.note_reader_degrader_conflict()
        manager.note_reader_degrader_conflict()
        assert manager.stats.reader_degrader_conflicts == 2
