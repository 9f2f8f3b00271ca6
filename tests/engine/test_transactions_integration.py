"""Transactions at the engine level: atomicity, isolation against degradation."""

import pytest

from repro import InstantDB
from repro.core.errors import SchemaError, TransactionAborted

from ..conftest import build_engine, derived_state

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"


@pytest.fixture
def db():
    db = build_engine()
    db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR person.location")
    return db


class TestExplicitTransactions:
    def test_commit_makes_inserts_visible(self, db):
        txn = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')", txn=txn)
        db.execute(f"INSERT INTO person (id, location) VALUES (2, '{LYON}')", txn=txn)
        db.commit(txn)
        assert db.row_count("person") == 2

    def test_rollback_undoes_inserts_and_scheduling(self, db):
        txn = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')", txn=txn)
        assert db.row_count("person") == 1
        db.rollback(txn)
        assert db.row_count("person") == 0
        assert db.scheduler.registered_count() == 0
        # No degradation ever fires for the rolled-back tuple.
        db.advance_time(days=800)
        assert db.stats.degradation_steps_applied == 0

    def test_rolled_back_insert_not_recoverable(self, db):
        from repro.privacy.forensic import scan_engine
        txn = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')", txn=txn)
        db.rollback(txn)
        report = scan_engine(db, [PARIS], table="person")
        assert report.clean, report.summary()

    def test_reads_within_transaction_hold_locks(self, db):
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        txn = db.begin()
        db.execute("SELECT * FROM person", txn=txn)
        assert db.transactions.locks.locks_held(txn.txn_id) == {"person"}
        db.commit(txn)
        assert db.transactions.locks.locks_held(txn.txn_id) == set()

    def test_writer_blocks_other_writer(self, db):
        writer = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')", txn=writer)
        with pytest.raises(TransactionAborted):
            db.execute(f"INSERT INTO person (id, location) VALUES (2, '{LYON}')")
        db.commit(writer)
        # After commit the implicit writer can proceed.
        db.execute(f"INSERT INTO person (id, location) VALUES (2, '{LYON}')")
        assert db.row_count("person") == 2

    def test_reader_blocks_writer_but_not_reader(self, db):
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        reader = db.begin()
        db.execute("SELECT * FROM person", txn=reader)
        # Another read is fine (shared locks are compatible).
        assert len(db.execute("SELECT * FROM person")) == 1
        # A write must wait.
        with pytest.raises(TransactionAborted):
            db.execute("DELETE FROM person", txn=None)
        db.commit(reader)
        assert db.execute("DELETE FROM person") == 1


class TestStatementScope:
    """``InstantDB._transaction``: the one scope every statement runs in."""

    def test_commits_on_success(self, db):
        with db._transaction(None) as txn:
            assert db.transactions.is_active(txn.txn_id)
        assert not db.transactions.is_active(txn.txn_id)
        assert db.transactions.stats.committed == 1

    def test_aborts_and_reraises_on_failure(self, db):
        undone = []
        with pytest.raises(ValueError):
            with db._transaction(None) as txn:
                txn.on_abort(lambda: undone.append(True))
                raise ValueError("boom")
        assert undone == [True]
        assert db.transactions.stats.aborted == 1

    def test_callers_transaction_passes_through_untouched(self, db):
        txn = db.begin()
        with pytest.raises(ValueError):
            with db._transaction(txn) as active:
                assert active is txn
                raise ValueError("boom")
        assert db.transactions.is_active(txn.txn_id)
        with db._transaction(txn):
            pass
        assert db.transactions.is_active(txn.txn_id)
        db.rollback(txn)


    def test_multi_row_insert_is_one_statement_so_one_transaction(self, tmp_path):
        """Without a caller's transaction a multi-row INSERT used to run one
        transaction per row: a third row that failed left the first two
        committed, and a good three-row statement paid three log flushes."""
        db = build_engine(data_dir=str(tmp_path))
        empty = derived_state(db, "person")
        with pytest.raises(SchemaError):
            db.execute("INSERT INTO person (id, name) "
                       "VALUES (1, 'a'), (2, 'b'), ('x', 'c')")
        assert db.execute("SELECT id, name FROM person").rows == []
        assert derived_state(db, "person") == empty
        assert recovered_twin(db, tmp_path).execute(
            "SELECT id, name FROM person").rows == []
        flushed, begun = db.wal.stats.flushed, db.transactions.stats.begun
        assert db.execute("INSERT INTO person (id, name) "
                          "VALUES (1, 'a'), (2, 'b'), (3, 'c')") == 3
        assert db.wal.stats.flushed == flushed + 1
        assert db.transactions.stats.begun == begun + 1
        assert recovered_twin(db, tmp_path).execute(
            "SELECT id, name FROM person ORDER BY id").rows == \
            [(1, "a"), (2, "b"), (3, "c")]


@pytest.fixture
def indexed(tmp_path):
    """A durable engine whose table has a primary key, a B+-tree index and a
    GT index, holding one committed row."""
    db = build_engine(data_dir=str(tmp_path))
    db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR person.location")
    db.execute("CREATE INDEX idx_name ON person (name)")
    db.execute("CREATE INDEX idx_location ON person (location) USING gt")
    db.execute(f"INSERT INTO person (id, name, location) VALUES (1, 'a', '{PARIS}')")
    return db


def recovered_twin(db, tmp_path):
    """A second engine over the same directory: what the log alone says."""
    twin = InstantDB(data_dir=str(tmp_path))
    twin.recover()
    return twin


def ids(db, where):
    return db.execute(f"SELECT id FROM person WHERE {where}").rows


class TestRollbackRestoresDerivedState:
    """Abort-undo is the inverse delta through the one fan-out: heap, every
    index, statistics and schedule follow, and the live engine agrees with
    its own log."""

    def test_update_rollback_restores_heap_indexes_and_statistics(
            self, indexed, tmp_path):
        db = indexed
        rows = db.execute("SELECT id, name FROM person").rows
        before = derived_state(db, "person")
        txn = db.begin()
        assert db.execute("UPDATE person SET name = 'zzz' WHERE id = 1", txn=txn) == 1
        assert derived_state(db, "person") != before
        db.rollback(txn)
        assert db.execute("SELECT id, name FROM person").rows == rows == [(1, "a")]
        assert ids(db, "name = 'a'") == [(1,)]          # through idx_name
        assert ids(db, "name = 'zzz'") == []
        assert ids(db, "id = 1") == [(1,)]              # through pk_person
        assert derived_state(db, "person") == before
        twin = recovered_twin(db, tmp_path)
        assert twin.execute("SELECT id, name FROM person").rows == rows
        assert derived_state(twin, "person") == before

    def test_update_rollback_holds_when_the_updated_page_reached_disk_first(
            self, indexed, tmp_path):
        """Recovery takes the undo of a transaction whose ``ABORT`` it finds
        as done, so the undo logs itself (an ``UPDATE`` of system transaction
        0, always redone): the log leads back to the before-image even when
        only the *updated* page ever reached disk."""
        db = indexed
        txn = db.begin()
        db.execute("UPDATE person SET name = 'zzz' WHERE id = 1", txn=txn)
        db.table_store("person").flush()        # e.g. an eviction, a checkpoint
        db.pager.sync()
        db.rollback(txn)                        # restored in the buffer pool only
        assert db.execute("SELECT id, name FROM person").rows == [(1, "a")]
        assert recovered_twin(db, tmp_path).execute(
            "SELECT id, name FROM person").rows == [(1, "a")]

    def test_update_is_undone_when_a_lock_conflict_aborts_its_transaction(self, db):
        db.execute("CREATE TABLE other (id INT PRIMARY KEY)")
        db.execute("CREATE INDEX idx_name ON person (name)")
        db.execute(f"INSERT INTO person (id, name, location) VALUES (1, 'a', '{PARIS}')")
        before = derived_state(db, "person")
        holder = db.begin()
        db.execute("INSERT INTO other VALUES (1)", txn=holder)
        txn = db.begin()
        db.execute("UPDATE person SET name = 'zzz' WHERE id = 1", txn=txn)
        with pytest.raises(TransactionAborted):
            db.execute("SELECT * FROM other", txn=txn)
        db.commit(holder)
        assert db.execute("SELECT id, name FROM person").rows == [(1, "a")]
        assert ids(db, "name = 'zzz'") == []
        assert derived_state(db, "person") == before

    def test_primary_key_update_rolled_back_probes_the_old_key(
            self, indexed, tmp_path):
        db = indexed
        before = derived_state(db, "person")
        txn = db.begin()
        db.execute("UPDATE person SET id = 9, name = 'b' WHERE id = 1", txn=txn)
        assert db.execute("SELECT id FROM person WHERE id = 9", txn=txn).rows == [(9,)]
        db.rollback(txn)
        assert ids(db, "id = 1") == [(1,)]
        assert ids(db, "id = 9") == []
        assert derived_state(db, "person") == before
        assert recovered_twin(db, tmp_path).execute(
            "SELECT id, name FROM person").rows == [(1, "a")]

    def test_delete_is_a_secure_erase_that_rollback_does_not_undo(
            self, indexed, tmp_path):
        """``DELETE`` appends ``REMOVE``, scrubs the row's log images and
        flushes its page at statement time: the accurate image is gone
        before the transaction ends, so there is nothing to roll back to —
        live and recovered agree on that."""
        db = indexed
        txn = db.begin()
        assert db.execute("DELETE FROM person WHERE id = 1", txn=txn) == 1
        db.rollback(txn)
        for engine in (db, recovered_twin(db, tmp_path)):
            assert engine.execute("SELECT id FROM person").rows == []
            assert engine.row_count("person") == 0
            indexes, row_count, columns, scheduled = derived_state(engine, "person")
            assert all(not entries for entries in indexes.values())
            assert row_count == 0 and scheduled == []
            assert all(not counts for counts, *_rest in columns.values())
            assert engine.scheduler.registered_count() == 0


class TestDegradationVersusTransactions:
    def test_degradation_defers_while_reader_holds_lock(self, db):
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        reader = db.begin()
        db.execute("SELECT * FROM person", txn=reader)
        # The first degradation step becomes due while the reader still holds
        # its shared lock: the step is deferred, not lost.
        db.advance_time(hours=2)
        assert db.stats.degradation_conflicts >= 1
        assert db.stats.degradation_steps_applied == 0
        db.commit(reader)
        db.advance_time(seconds=2)
        assert db.stats.degradation_steps_applied >= 1
        assert db.execute("SELECT location FROM person", purpose="city").rows == [("Paris",)]

    def test_degradation_runs_between_transactions(self, db):
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        db.advance_time(hours=2)
        assert db.stats.degradation_conflicts == 0
        assert db.stats.degradation_steps_applied >= 1

    def test_conflicts_recorded_in_transaction_stats(self, db):
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        reader = db.begin()
        db.execute("SELECT * FROM person", txn=reader)
        db.advance_time(hours=2)
        assert db.transactions.stats.reader_degrader_conflicts >= 1
        db.commit(reader)

    def test_degradation_uses_system_transactions(self, db):
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        before = db.transactions.stats.system_begun
        db.advance_time(hours=2)
        assert db.transactions.stats.system_begun > before

    def test_insert_effects_continue_after_commit(self, db):
        """The paper: a committed insert keeps producing effects (degradation
        steps) long after the transaction ended."""
        txn = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')", txn=txn)
        db.commit(txn)
        db.advance_time(days=40)
        db.execute("DECLARE PURPOSE country SET ACCURACY LEVEL country FOR person.location")
        assert db.execute("SELECT location FROM person", purpose="country").rows == [("France",)]
