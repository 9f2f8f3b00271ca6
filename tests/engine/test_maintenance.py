"""Engine maintenance surface: checkpoints, histograms, persistence, stats."""

import math

import pytest

from repro import InstantDB
from repro.engine import database as database_module
from repro.engine.catalog_io import restore_catalog, snapshot_catalog
from repro.storage.wal import LogRecordType
from repro.txn.recovery import RecoveryManager

from ..conftest import build_engine

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"


@pytest.fixture
def db():
    db = build_engine()
    db.execute(f"INSERT INTO person (id, user_id, name, location, salary) "
               f"VALUES (1, 1, 'alice', '{PARIS}', 2500)")
    db.execute(f"INSERT INTO person (id, user_id, name, location, salary) "
               f"VALUES (2, 2, 'bob', '{LYON}', 3100)")
    return db


class TestCheckpointing:
    def test_checkpoint_appends_record_and_counts(self, db):
        db.checkpoint()
        assert db.stats.checkpoints == 1
        types = [record.record_type for record in db.wal]
        assert LogRecordType.CHECKPOINT in types

    def test_checkpoint_with_truncation_shrinks_log(self, db):
        before = len(db.wal)
        db.checkpoint(truncate_wal=True)
        assert len(db.wal) < before
        # The engine keeps working after truncation.
        db.execute(f"INSERT INTO person (id, location) VALUES (3, '{PARIS}')")
        assert db.row_count("person") == 3

    def test_degradation_still_correct_after_truncation(self, db):
        db.checkpoint(truncate_wal=True)
        db.advance_time(hours=2)
        db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR person.location")
        assert set(db.execute("SELECT location FROM person", purpose="city")
                   .column("location")) == {"Paris", "Lyon"}

    def test_truncation_keeps_an_open_transactions_records(self, tmp_path):
        """The checkpoint flushes an open transaction's rows to the pages; a
        crash then leaves them uncommitted, so recovery must still hold the
        records that undo them."""
        db = build_engine(data_dir=str(tmp_path / "data"))
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        txn = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (2, '{LYON}')", txn=txn)
        db.checkpoint(truncate_wal=True)
        db.daemon.pause()                 # crash: the transaction never ends
        reopened = InstantDB(data_dir=str(tmp_path / "data"))
        reopened.recover()
        assert reopened.execute("SELECT id FROM person").column("id") == [1]


    def test_clean_checkpoint_that_truncates_nothing_logs_no_catalog(
            self, tmp_path):
        """The log still holds the last CATALOG snapshot, so a checkpoint
        that drops nothing and finds the catalog clean adds none; a bare
        recover() restores the catalog from the one logged with the DDL."""
        data_dir = str(tmp_path / "data")
        db = build_engine(data_dir=data_dir)
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        appended = db.wal.stats.appended_by_type
        catalogs = appended.get("CATALOG", 0)
        assert catalogs >= 1
        db.checkpoint()
        assert appended.get("CATALOG", 0) == catalogs
        assert appended.get("CHECKPOINT", 0) == 1
        db.daemon.pause()                 # abandon without close()
        reopened = InstantDB(data_dir=data_dir)
        reopened.recover()
        assert reopened.describe() == db.describe()
        assert reopened.execute("SELECT id FROM person").column("id") == [1]

    def test_truncating_checkpoint_logs_catalog(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = build_engine(data_dir=data_dir)
        db.execute(f"INSERT INTO person (id, location) VALUES (1, '{PARIS}')")
        catalogs = db.wal.stats.appended_by_type.get("CATALOG", 0)
        db.checkpoint(truncate_wal=True)
        assert db.wal.stats.appended_by_type.get("CATALOG", 0) == catalogs + 1
        assert next(iter(db.wal)).record_type is LogRecordType.CATALOG
        db.daemon.pause()                 # abandon without close()
        reopened = InstantDB(data_dir=data_dir)
        reopened.recover()
        assert reopened.describe() == db.describe()
        assert reopened.execute("SELECT id FROM person").column("id") == [1]


class TestIntrospection:
    def test_tables_listing(self, db):
        assert db.tables() == ["person"]

    def test_level_histogram_moves_with_time(self, db):
        assert db.level_histogram("person", "location") == {0: 2}
        db.advance_time(hours=2)
        assert db.level_histogram("person", "location") == {1: 2}

    def test_forensic_image_nonempty_and_shrinks_meaning(self, db):
        image = db.forensic_image()
        assert PARIS.encode() in image
        db.advance_time(hours=2)
        assert PARIS.encode() not in db.forensic_image()

    def test_engine_stats_track_activity(self, db):
        db.execute("SELECT * FROM person")
        db.advance_time(hours=2)
        stats = db.stats
        assert stats.rows_inserted == 2
        assert stats.statements_executed >= 3
        assert stats.degradation_steps_applied >= 2

    def test_describe_round_trip_after_activity(self, db):
        db.advance_time(days=2)
        text = db.describe()
        assert "person" in text and "location_lcp" in text


class TestPersistenceAndRecovery:
    def test_data_survives_flush_and_location_rebuild(self, tmp_path):
        db = build_engine(data_dir=str(tmp_path / "data"))
        db.execute(f"INSERT INTO person (id, name, location) VALUES (1, 'alice', '{PARIS}')")
        db.checkpoint()
        store = db.table_store("person")
        # Simulate losing the in-memory row map (as a restart would) and rebuild.
        store._locations.clear()
        store.rebuild_locations()
        assert store.row_count == 1
        assert store.read(store.row_keys()[0]).values["name"] == "alice"

    def test_recovery_manager_over_engine_stores(self, db):
        # An uncommitted transaction is interrupted by a crash: recovery undoes it.
        txn = db.begin()
        db.execute(f"INSERT INTO person (id, location) VALUES (99, '{PARIS}')", txn=txn)
        report = RecoveryManager(db.wal, dict(db.stores)).recover()
        assert txn.txn_id in report.loser_txns
        assert report.undone_inserts == 1
        assert not db.table_store("person").exists(
            max(db.table_store("person").row_keys(), default=0) + 1)
        assert db.row_count("person") == 2

    def test_degradation_not_undone_by_recovery(self, db):
        db.advance_time(hours=2)
        RecoveryManager(db.wal, dict(db.stores)).recover()
        db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR person.location")
        assert set(db.execute("SELECT location FROM person", purpose="city")
                   .column("location")) == {"Paris", "Lyon"}


def older_build_snapshot(engine):
    """The catalog document as builds with the ``"columnar"`` key wrote it."""
    return {**snapshot_catalog(engine), "columnar": ["person"]}


class TestCatalogRecordCompatibility:
    """``CATALOG`` records of older builds list the tables that had an
    in-memory mirror under a ``"columnar"`` key; the key is retired, the
    record format is not: such a record restores, the key is ignored."""

    def test_snapshot_with_the_retired_key_restores(self, db):
        fresh = InstantDB()
        assert restore_catalog(fresh, older_build_snapshot(db)) is None
        assert [info.name for info in fresh.catalog.tables()] == ["person"]
        assert fresh.describe() == db.describe()

    def test_directory_written_with_the_retired_key_reopens(
            self, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(database_module, "snapshot_catalog",
                          older_build_snapshot)
            db = build_engine(data_dir=str(tmp_path))
            for row_id, address in ((1, PARIS), (2, LYON), (3, PARIS)):
                db.execute(f"INSERT INTO person (id, user_id, name, location, "
                           f"salary) VALUES ({row_id}, {row_id}, 'u{row_id}', "
                           f"'{address}', 2500)")
            db.advance_time(hours=2)          # location: address -> city
            db.checkpoint()
            db.execute(f"INSERT INTO person (id, user_id, name, location, "
                       f"salary) VALUES (4, 4, 'u4', '{LYON}', 3100)")
            db.daemon.pause()                 # abandon without close()
        assert b'"columnar": ["person"]' in db.wal.raw_image()
        rows = sorted(db.table_store("person").scan(),
                      key=lambda row: row.row_key)

        reopened = InstantDB(data_dir=str(tmp_path))
        reopened.recover()
        recovered = sorted(reopened.table_store("person").scan(),
                           key=lambda row: row.row_key)
        assert recovered == rows
        assert reopened.level_histogram("person", "location") == {1: 3, 0: 1}
        assert reopened.scheduler.overdue_count(math.inf) == \
            db.scheduler.overdue_count(math.inf)
