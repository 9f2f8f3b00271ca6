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
    decode_degrade_chunk,
    delta_entries,
    encode_degrade_chunk,
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
        wal, store, manager = make_environment()
        winner = manager.begin()
        row_key = store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        # Degradation runs inside a system transaction that never committed
        # (crash right after) — it must still not be rolled back.
        loser = manager.begin(system=True)
        store.degrade(row_key, "location", LOCATION, to_level=1, now=3600.0,
                      txn_id=loser.txn_id)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert store.read(row_key).values["location"] == "Paris"
        assert report.skipped_undos >= 1


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

    def test_lagging_degradation_reported(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        row_key = store.insert(ROW, now=0.0, txn_id=winner.txn_id)
        manager.commit(winner)
        # Append a DEGRADE record without performing the physical degradation,
        # as if the crash hit between WAL append and page flush.
        (payload,) = encode_degrade_chunk(1, [row_key])
        wal.append(LogRecordType.DEGRADE, 0, table="person",
                   attribute="location", after=payload, timestamp=3600.0)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_degrades == 1

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


class TestSegmentDegradeRecords:
    """A wave is logged as one DEGRADE record per (column, level) chunk (the
    class is named after the record type the chunk DEGRADE absorbed)."""

    def rows(self, count):
        return [{**ROW, "id": i} for i in range(1, count + 1)]

    def make_wave(self, count=5, to_level=1):
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = [store.insert(row, now=0.0, txn_id=winner.txn_id)
                for row in self.rows(count)]
        manager.commit(winner)
        system = manager.begin(system=True)
        store.degrade_many([(keys, "location", LOCATION, to_level)], now=3600.0,
                           txn_id=system.txn_id)
        return wal, store, manager, keys

    def test_columnar_wave_logs_chunks_not_rows(self):
        """A wave's cohort is one record, whatever its size."""
        wal, store, _manager, keys = self.make_wave()
        (record,) = [r for r in wal if r.record_type is LogRecordType.DEGRADE]
        # The record names the column; the payload lists every affected
        # heap row behind the target level.  No row key of its own, no
        # image.
        assert (record.table, record.attribute, record.row_key) == \
            ("person", "location", -1)
        to_level, row_keys = decode_degrade_chunk(record.after)
        assert to_level == 1 and sorted(row_keys) == sorted(keys)

    def test_recovery_rebuilds_segments_and_level_vectors(self):
        """The row map is rebuilt from the pages, and the pages hold the
        degraded values and levels: nothing is redone."""
        wal, store, manager, keys = self.make_wave()
        # Crash: lose the in-memory state, keep heap pages + log.
        store._locations.clear()
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.wal_prep_passes == 1
        assert report.redone_degrade_chunks == 1
        assert report.redone_degrades == 0            # pages were flushed
        for key in keys:
            row = store.read(key)
            assert row.levels["location"] == 1
            assert row.values["location"] == "Paris"

    def test_lagging_rows_counted_and_left_to_the_daemon(self):
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = [store.insert(row, now=0.0, txn_id=winner.txn_id)
                for row in self.rows(3)]
        manager.commit(winner)
        # A chunk record whose page write never made it: every listed row
        # still stores the accurate value at level 0.
        (payload,) = encode_degrade_chunk(1, keys)
        wal.append(LogRecordType.DEGRADE, 0, table="person",
                   attribute="location", after=payload, timestamp=3600.0)
        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_degrade_chunks == 1
        assert report.redone_degrades == 3            # all three rows lag
        # The values were NOT fabricated from the log (it carries no images).
        for key in keys:
            assert store.read(key).values["location"] == ROW["location"]

    def test_chunk_whose_rows_partly_lag(self):
        """Of the four rows a chunk lists, two were degraded on disk before
        the crash (which came ahead of the scrub) and two had their page write
        lost: the first two are settled — their INSERT images leave the log —
        the others stay pending, accurate value and log image intact."""
        wal, store, manager = make_environment()
        winner = manager.begin()
        keys = [store.insert(row, now=0.0, txn_id=winner.txn_id)
                for row in self.rows(4)]
        manager.commit(winner)
        done, lost = keys[:2], keys[2:]

        def die(*args, **kwargs):
            raise KeyboardInterrupt

        wal.scrub_records = die                # pages flushed, log not scrubbed
        with pytest.raises(KeyboardInterrupt):
            store.degrade_many([(done, "location", LOCATION, 1)], now=3600.0)
        del wal.scrub_records
        (payload,) = encode_degrade_chunk(1, keys)
        wal.append(LogRecordType.DEGRADE, 0, table="person",
                   attribute="location", after=payload, timestamp=3600.0)
        assert all(wal.records_for("person", key) for key in keys)

        report = RecoveryManager(wal, {"person": store}).recover()
        assert report.redone_degrade_chunks == 2       # the wave's own + ours
        assert report.redone_degrades == len(lost)
        for key in done:
            assert store.read(key).values["location"] == "Paris"
            assert not wal.records_for("person", key)     # settled: re-scrubbed
        for key in lost:
            assert store.read(key).values["location"] == ROW["location"]
            assert wal.records_for("person", key)         # still pending
        assert b"1 Main Street, Paris" in wal.raw_image()

    def test_segment_ids_do_not_pollute_row_key_reservation(self):
        """A chunk record has no row key of its own (the field reads -1); it
        must not drag the store's row-key counter around."""
        wal, store, manager, keys = self.make_wave(count=2)
        store._locations.clear()
        RecoveryManager(wal, {"person": store}).recover()
        fresh = store.insert({**ROW, "id": 99}, now=1.0, txn_id=0)
        assert fresh == max(keys) + 1
