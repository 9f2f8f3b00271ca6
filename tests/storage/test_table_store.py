"""Tests for the degradation-aware table store (both non-recoverability strategies)."""

import pytest

from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.errors import PolicyError, RecordNotFoundError, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, SUPPRESSED
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import TableStore
from repro.storage.pager import MemoryPager
from repro.storage.wal import LogRecordType, WriteAheadLog

LOCATION = build_location_tree()
SALARY = build_salary_ranges()


def make_schema() -> TableSchema:
    return TableSchema("person", [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT"),
        Column("location", "TEXT", degradable=True, domain="location"),
        Column("salary", "INT", degradable=True, domain="salary"),
    ])


def make_store(strategy: str = "rewrite") -> TableStore:
    pool = BufferPool(MemoryPager(), capacity=16)
    return TableStore(make_schema(), pool, WriteAheadLog(), strategy=strategy)


ROW = {"id": 1, "name": "alice", "location": "1 Main Street, Paris", "salary": 2500}


@pytest.fixture(params=["rewrite", "crypto"])
def store(request) -> TableStore:
    return make_store(request.param)


class TestBasicOperations:
    def test_insert_and_read(self, store):
        row_key = store.insert(ROW, now=0.0)
        row = store.read(row_key)
        assert row.values["name"] == "alice"
        assert row.values["location"] == "1 Main Street, Paris"
        assert row.levels == {"location": 0, "salary": 0}
        assert row.inserted_at == 0.0
        assert store.row_count == 1

    def test_unknown_strategy_rejected(self):
        pool = BufferPool(MemoryPager(), capacity=4)
        with pytest.raises(StorageError):
            TableStore(make_schema(), pool, WriteAheadLog(), strategy="wishful")

    def test_read_missing_row_raises(self, store):
        with pytest.raises(RecordNotFoundError):
            store.read(99)

    def test_scan_and_fetch(self, store):
        keys = [store.insert({**ROW, "id": i}, now=float(i)) for i in range(1, 6)]
        assert {row.row_key for row in store.scan()} == set(keys)
        fetched = list(store.fetch(iter(keys[:2])))
        assert [row.row_key for row in fetched] == keys[:2]

    def test_insert_logs_after_image(self, store):
        store.insert(ROW, now=0.0)
        types = [record.record_type for record in store.wal]
        assert LogRecordType.DELTA in types

    def test_update_stable_column(self, store):
        row_key = store.insert(ROW, now=0.0)
        (before,), (updated,) = store.update_stable([row_key], [("name", "alice-renamed")],
                                                    now=1.0)
        assert before.values["name"] == "alice"
        assert updated.values["name"] == "alice-renamed"
        assert store.read(row_key).values["name"] == "alice-renamed"

    def test_update_degradable_column_rejected(self, store):
        row_key = store.insert(ROW, now=0.0)
        with pytest.raises(PolicyError):
            store.update_stable([row_key], [("location", "elsewhere")], now=1.0)

    def test_delete(self, store):
        row_key = store.insert(ROW, now=0.0)
        assert store.delete([row_key], now=1.0) == 1
        assert not store.exists(row_key)
        assert store.row_count == 0


class TestDegradation:
    def test_degrade_one_step(self, store):
        row_key = store.insert(ROW, now=0.0)
        row = store.degrade(row_key, "location", LOCATION, to_level=1, now=3600.0)
        assert row.values["location"] == "Paris"
        assert row.levels["location"] == 1
        # Reading again gives the degraded value.
        assert store.read(row_key).values["location"] == "Paris"

    def test_degrade_multiple_levels_at_once(self, store):
        row_key = store.insert(ROW, now=0.0)
        row = store.degrade(row_key, "location", LOCATION, to_level=3, now=10.0)
        assert row.values["location"] == "France"

    def test_degrade_to_same_level_is_noop(self, store):
        row_key = store.insert(ROW, now=0.0)
        row = store.degrade(row_key, "location", LOCATION, to_level=0, now=1.0)
        assert row.values["location"] == "1 Main Street, Paris"

    def test_degrade_backwards_rejected(self, store):
        row_key = store.insert(ROW, now=0.0)
        store.degrade(row_key, "location", LOCATION, to_level=2, now=1.0)
        with pytest.raises(PolicyError):
            store.degrade(row_key, "location", LOCATION, to_level=1, now=2.0)

    def test_degrade_stable_column_rejected(self, store):
        row_key = store.insert(ROW, now=0.0)
        with pytest.raises(PolicyError):
            store.degrade(row_key, "name", LOCATION, to_level=1, now=1.0)

    def test_degrade_to_suppressed(self, store):
        row_key = store.insert(ROW, now=0.0)
        row = store.degrade(row_key, "location", LOCATION, to_level=4, now=1.0)
        assert row.values["location"] is SUPPRESSED

    def test_degrade_salary_to_range(self, store):
        row_key = store.insert(ROW, now=0.0)
        row = store.degrade(row_key, "salary", SALARY, to_level=2, now=1.0)
        assert row.values["salary"] == "2000-3000"

    def test_degrade_logs_no_accurate_image(self, store):
        row_key = store.insert(ROW, now=0.0)
        logged = len(store.wal)
        store.degrade(row_key, "location", LOCATION, to_level=1, now=1.0)
        # The step logs nothing — the rewritten page is its record; a rewrite
        # store's scrub of the insert image leaves an audit record of counts.
        assert [r.record_type for r in store.wal.records()[logged:]] == \
            ([LogRecordType.SCRUB] if store.strategy == "rewrite" else [])
        assert b"Main Street" not in store.wal.raw_image()

    def test_independent_columns(self, store):
        row_key = store.insert(ROW, now=0.0)
        store.degrade(row_key, "location", LOCATION, to_level=1, now=1.0)
        row = store.read(row_key)
        assert row.levels == {"location": 1, "salary": 0}
        assert row.values["salary"] == 2500


class TestBulkDegradation:
    def test_degrade_many_matches_per_step_results(self, store):
        keys = [store.insert({**ROW, "id": i}, now=0.0) for i in range(1, 5)]
        (chunk,) = store.degrade_many(
            [(keys, "location", LOCATION, 1)], now=3600.0)
        assert (chunk.column, chunk.from_level, chunk.to_level) == ("location", 0, 1)
        assert chunk.transitions == {("1 Main Street, Paris", "Paris"): keys}
        for row_key in keys:
            row = store.read(row_key)
            assert row.values["location"] == "Paris"
            assert row.levels["location"] == 1

    def test_degrade_many_multiple_columns_one_rewrite(self, store):
        row_key = store.insert(ROW, now=0.0)
        relocations = store.stats.relocations
        chunks = store.degrade_many(
            [([row_key], "location", LOCATION, 1), ([row_key], "salary", SALARY, 2)],
            now=1.0)
        assert sorted(chunk.column for chunk in chunks) == ["location", "salary"]
        row = store.read(row_key)
        assert row.values["location"] == "Paris"
        assert row.values["salary"] == "2000-3000"
        assert row.levels == {"location": 1, "salary": 2}
        assert store.stats.relocations == relocations    # one in-place rewrite

    def test_degrade_many_noop_level_reported_unchanged(self, store):
        row_key = store.insert(ROW, now=0.0)
        assert store.degrade_many([([row_key], "location", LOCATION, 0)], now=1.0) == []
        assert store.read(row_key).values["location"] == "1 Main Street, Paris"
        # No WAL record, no degrade counted for a pure no-op.
        assert store.stats.degrade_steps == 0

    def test_degrade_many_single_scrub_pass(self):
        store = make_store("rewrite")
        keys = [store.insert({**ROW, "id": i}, now=0.0) for i in range(1, 11)]
        passes = store.wal.stats.scrub_passes
        store.degrade_many([(keys, "location", LOCATION, 1)], now=1.0)
        assert store.wal.stats.scrub_passes == passes + 1
        assert b"Main Street" not in store.wal.raw_image()

    def test_degrade_many_flushes_each_page_once(self):
        store = make_store("rewrite")
        keys = [store.insert({**ROW, "id": i}, now=0.0) for i in range(1, 41)]
        flushes = store.buffer_pool.stats.flushes
        store.degrade_many([(keys, "location", LOCATION, 1)], now=1.0)
        assert (store.buffer_pool.stats.flushes - flushes) <= store.heap.page_count

    def test_degrade_many_crypto_destroys_old_keys(self):
        store = make_store("crypto")
        row_key = store.insert(ROW, now=0.0)
        store.degrade_many([([row_key], "location", LOCATION, 2)], now=1.0)
        key_id = (store.schema.name, row_key, "location", 0)
        assert store.keystore.is_destroyed(key_id)
        assert store.read(row_key).values["location"] == "Ile-de-France"

    def test_degrade_many_backwards_rejected(self, store):
        row_key = store.insert(ROW, now=0.0)
        store.degrade(row_key, "location", LOCATION, to_level=2, now=1.0)
        with pytest.raises(PolicyError):
            store.degrade_many([([row_key], "location", LOCATION, 1)], now=2.0)

    def test_page_of_reflects_location(self, store):
        row_key = store.insert(ROW, now=0.0)
        assert store.page_of(row_key) == store._locations[row_key].page_id
        assert store.page_of(999) is None

    def test_remove_many_bulk(self):
        store = make_store("rewrite")
        keys = [store.insert({**ROW, "id": i}, now=0.0) for i in range(1, 6)]
        passes = store.wal.stats.scrub_passes
        assert store.remove_many(keys + [999], now=1.0) == 5
        assert store.row_count == 0
        assert store.stats.removals == 5
        # One scrub pass for the whole batch.
        assert store.wal.stats.scrub_passes == passes + 1
        assert b"alice" not in store.wal.raw_image()


class TestNonRecoverability:
    """After degradation / removal the accurate plaintext must be gone everywhere."""

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_degrade_removes_accurate_value_from_heap(self, strategy):
        store = make_store(strategy)
        row_key = store.insert(ROW, now=0.0)
        store.degrade(row_key, "location", LOCATION, to_level=1, now=1.0)
        assert b"1 Main Street, Paris" not in store.heap.raw_image()

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_removal_scrubs_heap_and_wal(self, strategy):
        store = make_store(strategy)
        row_key = store.insert(ROW, now=0.0)
        store.remove(row_key, now=1.0)
        image = store.raw_image()
        assert b"1 Main Street, Paris" not in image
        assert b"alice" not in image

    def test_crypto_wal_never_contains_plaintext(self):
        store = make_store("crypto")
        store.insert(ROW, now=0.0)
        # Even before any degradation, the WAL image only holds ciphertext for
        # degradable values.
        assert b"1 Main Street, Paris" not in store.wal.raw_image()

    def test_rewrite_wal_scrubbed_only_after_removal(self):
        store = make_store("rewrite")
        row_key = store.insert(ROW, now=0.0)
        assert b"1 Main Street, Paris" in store.wal.raw_image()
        store.remove(row_key, now=1.0)
        assert b"1 Main Street, Paris" not in store.wal.raw_image()

    def test_crypto_keys_destroyed_on_degrade(self):
        store = make_store("crypto")
        row_key = store.insert(ROW, now=0.0)
        assert store.keystore.live_key_count == 2
        store.degrade(row_key, "location", LOCATION, to_level=1, now=1.0)
        assert store.keystore.is_destroyed(("person", row_key, "location", 0))

    def test_crypto_destroyed_key_reads_as_suppressed(self):
        store = make_store("crypto")
        row_key = store.insert(ROW, now=0.0)
        # Simulate a crash that destroyed the key without rewriting the value.
        store.keystore.destroy_key(("person", row_key, "location", 0))
        assert store.read(row_key).values["location"] is SUPPRESSED


class TestRecoveryHelpers:
    def test_restore_row_reinserts_missing_row(self):
        store = make_store("rewrite")
        row_key = store.insert(ROW, now=0.0)
        payload = store.heap.read(store._location(row_key))
        store.remove(row_key, now=1.0, scrub_log=False)
        assert not store.exists(row_key)
        assert store.restore_rows([(row_key, payload)]) == [row_key]
        assert store.read(row_key).values["name"] == "alice"

    def test_rebuild_locations_after_restart(self):
        store = make_store("rewrite")
        keys = [store.insert({**ROW, "id": i}, now=0.0) for i in range(1, 4)]
        store.flush()
        store._locations.clear()
        store.rebuild_locations()
        assert set(store.row_keys()) == set(keys)
        next_key = store.insert({**ROW, "id": 99}, now=1.0)
        assert next_key == max(keys) + 1

    def test_nulls_roundtrip(self):
        store = make_store("rewrite")
        row_key = store.insert({"id": 5, "name": None,
                                "location": "1 Main Street, Paris", "salary": 100},
                               now=0.0)
        assert store.read(row_key).values["name"] is NULL
