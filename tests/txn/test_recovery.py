"""Tests for crash recovery: winners redone, losers undone, degradation never undone."""

import pytest

from repro.core.domains import build_location_tree
from repro.core.schema import Column, TableSchema
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import TableStore
from repro.storage.pager import MemoryPager
from repro.storage.wal import (
    LogRecordType,
    WriteAheadLog,
    delta_entries,
    encode_delta,
)
from repro.txn.recovery import RecoveryManager
from repro.txn.transaction import TransactionManager

LOCATION = build_location_tree()


def make_schema():
    return TableSchema("person", [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT"),
        Column("location", "TEXT", degradable=True, domain="location"),
    ])


def make_environment():
    wal = WriteAheadLog()
    pool = BufferPool(MemoryPager(), capacity=16)
    store = TableStore(make_schema(), pool, wal, strategy="rewrite")
    manager = TransactionManager(wal)
    return wal, store, manager


ROW = {"id": 1, "name": "alice", "location": "1 Main Street, Paris"}


class TestAnalysis:
    def test_committed_and_loser_sets(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        loser = manager.begin()
        store.insert({**ROW, "id": 2}, now=0.0, txn_id=loser.txn_id)
        # Crash: no commit for the loser.
        report = RecoveryManager(wal, {"person": store}).recover()
        assert winner.txn_id in report.committed_txns
        assert loser.txn_id in report.loser_txns

    def test_aborted_transactions_are_not_losers(self):
        wal, store, manager = make_environment()
        txn = manager.begin()
        manager.abort(txn)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert txn.txn_id not in report.loser_txns


class TestUndo:
    def test_loser_insert_is_removed(self):
        wal, store, manager = make_environment()
        loser = manager.begin()
        row_key = store.insert(ROW, now=0.0, txn_id=loser.txn_id)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.undone_inserts == 1
        assert not store.exists(row_key)
        # The accurate value is also scrubbed from the log during undo.
        assert b"1 Main Street, Paris" not in wal.raw_image()

    def test_loser_stable_update_rolled_back(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        row_key = store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        loser = manager.begin()
        store.update_stable([row_key], [("name", "mallory")], now=1.0, txn_id=loser.txn_id)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.undone_updates == 1
        assert store.read(row_key).values["name"] == "alice"

    def test_degradation_of_loser_transaction_not_undone(self):
        """A wave whose system transaction never committed (crash right
        after): its steps logged nothing to undo, and its removal's −1 is
        redone, not undone."""
        wal, store, manager = make_environment()
        winner = manager.begin()
        row_key, doomed = store.insert_many([ROW, {**ROW, "id": 2}], now=0.0,
                                            txn_id=winner.txn_id).keys
        manager.commit(winner)
        loser = manager.begin(system=True)
        store.degrade_many([([row_key], "location", LOCATION, 1)], now=3600.0)
        store.remove_many([doomed], now=3600.0, txn_id=loser.txn_id)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert loser.txn_id in report.loser_txns
        assert store.read(row_key).values["location"] == "Paris"
        assert store.read(row_key).levels["location"] == 1
        assert not store.exists(doomed)
        assert report.skipped_undos >= 1
        assert b"Main Street" not in wal.raw_image()


class TestRedo:
    def test_committed_insert_redone_after_heap_loss(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        row_key = store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        # Simulate losing the in-memory row map and the heap record.
        record_id = store._location(row_key)
        store.heap.delete_many(record_id.page_id, [record_id.slot])
        store._locations.clear()
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_inserts == 1
        assert store.read(row_key).values["name"] == "alice"

    def test_committed_remove_redone(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        row_key = store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        store.remove(row_key, now=5.0, scrub_log=False)
        # Pretend the deletion page write was lost: restore the row image.
        run = [r for r in wal if r.record_type is LogRecordType.DELTA][0]
        store.restore_rows([(row_key, delta_entries(run)[0][2])])
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_removes == 1
        assert not store.exists(row_key)

    def test_a_page_removal_whose_flush_was_lost_is_erased_by_redo(self):
        """A removal is one DELTA of imageless −1 entries for the page.  The
        crash came after it was logged, before the scrub and the page flush:
        redo erases the rows the heap still holds, and the settled scrub at
        the end leaves no image of them in the log."""
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = store.insert_many([{**ROW, "id": i, "name": f"gone-{i}"} for i in range(1, 6)],
                                 now=0.0, txn_id=winner.txn_id).keys
        manager.commit(winner)
        doomed = keys[1:4]
        lost = [store.image(store.read(key)) for key in doomed]

        def die(*args, **kwargs):
            raise KeyboardInterrupt

        wal.scrub_records = die
        with pytest.raises(KeyboardInterrupt):
            store.remove_many(doomed, now=5.0)
        del wal.scrub_records
        (removal,) = [r for r in wal if r.record_type is LogRecordType.DELTA][1:]
        assert delta_entries(removal) == [(key, -1, None) for key in doomed]
        store.restore_rows(list(zip(doomed, lost)))  # the page write never happened
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_removes == len(doomed)
        assert sorted(store.row_keys()) == [keys[0], keys[4]]
        image = wal.raw_image()
        assert all(f"gone-{key}".encode() not in image for key in doomed)
        assert b"gone-1" in image and not any(wal.records_for("person", key) for key in doomed)

    def test_a_loser_delete_stays_erased(self):
        """DELETE is a secure erase at statement time: its −1 entries are
        redone although the transaction never committed, so the row stays
        gone even where the erased page did not reach the disk."""
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = store.insert_many([{**ROW, "id": i} for i in (1, 2)], now=0.0,
                                 txn_id=winner.txn_id).keys
        manager.commit(winner)
        image = store.image(store.read(keys[0]))
        loser = manager.begin()
        assert store.delete([keys[0]], now=1.0, txn_id=loser.txn_id) == 1
        store.restore_rows([(keys[0], image)])    # the page write never happened
        report = RecoveryManager(wal, {"person": store}).recover()
        assert loser.txn_id in report.loser_txns
        assert report.redone_removes == 1 and report.undone_inserts == 0
        assert store.row_keys() == [keys[1]]
        assert not wal.records_for("person", keys[0])

    def test_a_loser_update_is_written_back_in_place(self):
        """Undo of an UPDATE writes the −1 image over the row where it is:
        the row keeps its address, nothing relocates."""
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = store.insert_many([{**ROW, "id": i, "name": "n" * 40} for i in range(1, 120)],
                                 now=0.0, txn_id=winner.txn_id).keys
        manager.commit(winner)
        row_key = keys[0]
        address = store._location(row_key)
        assert address.page_id != store.page_of(keys[-1])    # not on the tail page
        loser = manager.begin()
        store.update_stable([row_key], [("name", "mallory")], now=1.0, txn_id=loser.txn_id)
        (update,) = [r for r in wal if r.txn_id == loser.txn_id
                     and r.record_type is LogRecordType.DELTA]
        assert [(key, weight) for key, weight, _image in delta_entries(update)] == \
            [(row_key, -1), (row_key, 1)]
        relocations = store.stats.relocations
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.undone_updates == 1 and report.undone_inserts == 0
        assert store._location(row_key) == address
        assert store.stats.relocations == relocations
        assert store.read(row_key).values["name"] == "n" * 40

    def test_unknown_table_in_log_raises(self):
        wal, store, manager = make_environment()
        after, images = encode_delta([(1, 1, b"x")])
        wal.append(LogRecordType.DELTA, 1, table="ghost", row_key=1, after=after,
                   images=images)
        from repro.core.errors import RecoveryError
        with pytest.raises(RecoveryError):
            RecoveryManager(wal, {"person": store}).recover()


class TestSinglePassPrepare:
    def test_recovery_prepares_in_exactly_one_wal_pass(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        loser = manager.begin()
        store.insert({**ROW, "id": 2}, now=0.0, txn_id=loser.txn_id)
        report = RecoveryManager(wal, {"person": store}).recover()
        # Analysis, drop epochs, page directory and row-key highs all come
        # out of the single fused forward pass.
        assert report.wal_prep_passes == 1


class TestWaveRecovery:
    """A wave logs no record of its steps: its synced pages are their record,
    and recovery keeps no log image less degraded than the heap's record."""

    def rows(self, count):
        return [{**ROW, "id": i} for i in range(1, count + 1)]

    def make_rows(self, count):
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = store.insert_many(self.rows(count), now=0.0, txn_id=winner.txn_id).keys
        manager.commit(winner)
        return wal, store, manager, list(keys)

    def make_wave(self, count=5, to_level=1):
        wal, store, manager, keys = self.make_rows(count)
        store.degrade_many([(keys, "location", LOCATION, to_level)], now=3600.0)
        return wal, store, manager, keys

    def crash_at_scrub(self, wal, store, keys, lost=()):
        """A wave over ``keys`` dies at its scrub, the pages synced — but the
        page write of the rows ``lost`` never happened: their records are
        the accurate ones again."""
        images = {key: store.image(store.read(key)) for key in lost}

        def die(*args, **kwargs):
            raise KeyboardInterrupt

        wal.scrub_records = die
        with pytest.raises(KeyboardInterrupt):
            store.degrade_many([(keys, "location", LOCATION, 1)], now=3600.0)
        del wal.scrub_records
        store.restore_rows(list(images.items()))
        assert all(wal.records_for("person", key) for key in keys)

    def test_a_wave_logs_no_record_of_its_steps(self):
        """A wave's system transaction that removes nothing ends with no
        BEGIN, no COMMIT and no log flush; the log gets the scrub's audit
        record alone."""
        wal, store, manager, keys = self.make_rows(5)
        appended, flushed = wal.stats.appended, wal.stats.flushed
        system = manager.begin(system=True)
        store.degrade_many([(keys, "location", LOCATION, 1)], now=3600.0)
        manager.commit(system)
        assert [r.record_type for r in wal.records()[appended:]] == [LogRecordType.SCRUB]
        assert wal.stats.flushed == flushed
        assert all(store.read(key).values["location"] == "Paris" for key in keys)

    def test_recovery_rebuilds_rows_and_levels_from_the_pages(self):
        """The row map is rebuilt from the pages, and the pages hold the
        degraded values and levels: nothing is redone."""
        wal, store, manager, keys = self.make_wave()
        # Crash: lose the in-memory state, keep heap pages + log.
        store._locations.clear()
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.wal_prep_passes == 1
        assert (report.redone_inserts, report.redone_updates) == (0, 0)
        for key in keys:
            row = store.read(key)
            assert row.levels["location"] == 1
            assert row.values["location"] == "Paris"

    def test_a_lost_page_write_leaves_the_step_pending(self):
        """The wave's page write never reached the disk: every row is still
        accurate at level 0, recovery fabricates nothing (the log holds no
        degraded value) and keeps the images of the rows' pending step."""
        wal, store, manager, keys = self.make_rows(3)
        self.crash_at_scrub(wal, store, keys, lost=keys)
        RecoveryManager(wal, {"person": store}).recover()
        for key in keys:
            assert store.read(key).values["location"] == ROW["location"]
            assert store.read(key).levels["location"] == 0
            assert wal.records_for("person", key)

    def test_a_wave_whose_page_writes_partly_landed(self):
        """Of the four rows a wave took, two were degraded on disk before the
        crash (which came ahead of the scrub) and two had their page write
        lost: the level rule scrubs the first two's INSERT images, the
        others stay pending, accurate value and log image intact."""
        wal, store, manager, keys = self.make_rows(4)
        done, lost = keys[:2], keys[2:]
        self.crash_at_scrub(wal, store, keys, lost=lost)
        RecoveryManager(wal, {"person": store}).recover()
        for key in done:
            assert store.read(key).values["location"] == "Paris"
            assert not wal.records_for("person", key)     # settled: re-scrubbed
        for key in lost:
            assert store.read(key).values["location"] == ROW["location"]
            assert wal.records_for("person", key)         # still pending
        assert b"1 Main Street, Paris" in wal.raw_image()

    def test_redo_writes_no_image_less_degraded_than_the_heap(self):
        """A committed UPDATE ahead of the wave: its +1 image is at level 0,
        the record at 1 already has the update, and redo keeps the record."""
        wal, store, manager, keys = self.make_rows(2)
        writer = manager.begin()
        store.update_stable([keys[0]], [("name", "bob")], now=1.0, txn_id=writer.txn_id)
        manager.commit(writer)
        self.crash_at_scrub(wal, store, keys)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_updates == 0
        row = store.read(keys[0])
        assert (row.values["name"], row.values["location"], row.levels["location"]) == \
            ("bob", "Paris", 1)
        assert b"Main Street" not in wal.raw_image()

    def test_row_key_reservation_after_a_wave(self):
        """Recovery of a wave leaves the store's row-key counter past every key."""
        wal, store, manager, keys = self.make_wave(count=2)
        store._locations.clear()
        RecoveryManager(wal, {"person": store}).recover()
        fresh = store.insert({**ROW, "id": 99}, now=1.0, txn_id=0)
        assert fresh == max(keys) + 1
