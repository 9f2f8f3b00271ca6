"""The table store's one record reader (``TableStore.row_reader``).

* equivalence — over random records carrying every value tag, both
  non-recoverability strategies and every column subset, the reader returns
  what the generic ``decode_record`` plus the per-value reference loop below
  returns, sentinels by identity, in place at any offset of a larger buffer;
* level-first exclusion — a row over its cap is dropped on the header alone;
* corruption — a damaged prefix or payload raises ``StorageError`` (never a
  silent misread), a destroyed key reads ``SUPPRESSED``;
* laziness — a half-consumed scan interleaved with deletes and relocating
  degradation steps sees each row key at most once and never an image more
  accurate than what the store holds when the row is handed out.
"""

import itertools
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.errors import KeyDestroyedError, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, REMOVED, SUPPRESSED
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import TableStore
from repro.storage.heap import RecordId
from repro.storage.pager import MemoryPager
from repro.storage.serialization import decode_record, decode_value
from repro.storage.wal import WriteAheadLog

SALARY = build_salary_ranges()
LOCATION = build_location_tree()

SCHEMA = TableSchema("person", [
    Column("id", "INT", primary_key=True),
    Column("name", "TEXT"),
    Column("location", "TEXT", degradable=True, domain="location"),
    Column("score", "FLOAT"),
    Column("salary", "INT", degradable=True, domain="salary"),
    Column("active", "BOOL"),
])
NAMES = [column.name for column in SCHEMA.columns]
DEGRADABLE = ["location", "salary"]
SUBSETS = [None] + [frozenset(combo) for size in range(len(NAMES) + 1)
                    for combo in itertools.combinations(NAMES, size)]


def make_store(strategy: str = "rewrite", capacity: int = 16) -> TableStore:
    pool = BufferPool(MemoryPager(), capacity=capacity)
    return TableStore(SCHEMA, pool, WriteAheadLog(), strategy=strategy)


def reference_decode(store: TableStore, payload: bytes):
    """What the reader must return: the generic record decode, then one
    decrypt per ciphertext field (the per-value loop the reader replaced)."""
    flat = decode_record(payload)
    row_key, inserted_at = flat[0], flat[1]
    levels = dict(zip(DEGRADABLE, flat[2:2 + len(DEGRADABLE)]))
    values = {}
    for name, value in zip(NAMES, flat[2 + len(DEGRADABLE):]):
        if store.strategy == "crypto" and name in levels and isinstance(value, bytes):
            key_id = (SCHEMA.name, row_key, name, levels[name])
            try:
                value, _ = decode_value(store.keystore.decrypt(key_id, value), 0)
            except KeyDestroyedError:
                value = SUPPRESSED
        values[name] = value
    return row_key, inserted_at, levels, values


def assert_same(row, expected, columns) -> None:
    row_key, inserted_at, levels, values = expected
    assert (row.row_key, row.inserted_at, row.levels) == (row_key, inserted_at, levels)
    wanted = NAMES if columns is None else [n for n in NAMES if n in columns]
    assert list(row.values) == wanted
    for name in wanted:
        got, want = row.values[name], values[name]
        if want is NULL or want is SUPPRESSED or want is REMOVED:
            assert got is want, name
        else:
            assert type(got) is type(want) and got == want, name


stable = {
    "id": st.integers(min_value=-2**63, max_value=2**63 - 1),
    "name": st.one_of(st.just(NULL), st.text(max_size=40)),
    "score": st.one_of(st.just(NULL), st.floats(allow_nan=False)),
    "active": st.one_of(st.just(NULL), st.booleans()),
}
sentinels = st.sampled_from([NULL, SUPPRESSED, REMOVED])
records = st.fixed_dictionaries({
    **stable,
    "location": st.one_of(sentinels, st.text(max_size=40)),
    "salary": st.one_of(sentinels, st.integers(min_value=0, max_value=10**9)),
    "row_key": st.integers(min_value=1, max_value=2**40),
    "inserted_at": st.floats(min_value=0, max_value=1e12),
    "levels": st.tuples(st.integers(0, 4), st.integers(0, 3)),
})


class TestEquivalence:
    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    @given(record=records, pad=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_reader_matches_generic_decode_for_every_column_subset(
            self, strategy, record, pad):
        store = make_store(strategy)
        levels = dict(zip(DEGRADABLE, record["levels"]))
        payload = store._encode_row(record["row_key"], record["inserted_at"], levels,
                                    {name: record[name] for name in NAMES})
        expected = reference_decode(store, payload)
        framed = bytearray(b"\xaa" * pad + payload + b"\xbb" * pad)
        for columns in SUBSETS:
            assert_same(store._decode_row(payload, columns), expected, columns)
            in_place = store._decode_plan(columns)(
                framed, ((pad, pad + len(payload)),))[0][0]
            assert_same(in_place, expected, columns)

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_read_scan_and_fetch_agree_with_the_log_image(self, strategy):
        store = make_store(strategy)
        keys = [store.insert({"id": i, "name": f"n{i}", "location": "1 Main Street, Paris",
                              "score": i / 3, "salary": 1000 + i, "active": i % 2 == 0},
                             now=float(i)) for i in range(200)]
        assert store.heap.page_count > 1
        images = {record.row_key: record.after for record in store.wal
                  if record.after}
        for columns in (None, frozenset(), frozenset({"name", "salary"})):
            scanned = list(store.scan(columns))
            fetched = list(store.fetch(iter(reversed(keys)), columns))
            assert [row.row_key for row in scanned] == keys
            assert sorted(row.row_key for row in fetched) == keys
            for row in itertools.chain(scanned, fetched, [store.read(keys[7], columns)]):
                assert_same(row, reference_decode(store, images[row.row_key]), columns)

    def test_destroyed_key_reads_suppressed(self):
        store = make_store("crypto")
        key = store.insert({"id": 1, "name": "a", "location": "1 Main Street, Paris",
                            "score": 1.0, "salary": 2500, "active": True}, now=0.0)
        store.keystore.destroy_key((SCHEMA.name, key, "salary", 0))
        row = store.read(key)
        assert row.values["salary"] is SUPPRESSED
        assert row.values["location"] == "1 Main Street, Paris"
        assert next(store.scan(frozenset({"salary"}))).values == {"salary": SUPPRESSED}


class TestLevelFirstExclusion:
    def test_capped_rows_are_counted_not_decoded(self):
        store = make_store()
        keys = [store.insert({"id": i, "name": "x", "location": "1 Main Street, Paris",
                              "score": 0.5, "salary": 2500, "active": True}, now=0.0)
                for i in range(120)]
        store.degrade_many([(keys[:50], "salary", SALARY, 2)], now=1.0)
        store.degrade_many([(keys[100:], "location", LOCATION, 1)], now=1.0)
        tally = SimpleNamespace(examined=0, excluded=0, pages_skipped=0)
        reads = store.stats.reads
        scan = store.scan(None, [("salary", 1), ("location", 0)], tally)
        assert next(scan).row_key == keys[50]
        # Exact at every row handed out, then at the end of the scan.
        assert (tally.examined, tally.excluded) == (51, 50)
        assert [row.row_key for row in scan] == keys[51:100]
        assert (tally.examined, tally.excluded) == (120, 70)
        # A run of keys on a page holding only excluded rows is skipped on
        # the page's level floor, its records never decoded.
        pages = [store.page_of(key) for key in keys]
        seen = set(pages[50:100])
        runs = [page for at, page in enumerate(pages) if at == 0 or pages[at - 1] != page]
        assert tally.pages_skipped == sum(page not in seen for page in runs) > 0
        assert store.stats.reads - reads == sum(page in seen for page in pages) < 120

    def test_excluded_row_never_reaches_its_values(self):
        """The header decides: a record whose payload is garbage is still
        excluded cleanly when its level is over the cap."""
        store = make_store()
        key = store.insert({"id": 1, "name": "x", "location": "1 Main Street, Paris",
                            "score": 0.5, "salary": 2500, "active": True}, now=0.0)
        store.degrade(key, "salary", SALARY, 2, now=1.0)
        payload = store.heap.read(store._location(key))
        broken = payload[:store._header.size] + b"\xff" * 8
        span = ((0, len(broken)),)
        assert store._decode_plan(None, (("salary", 1),))(broken, span)[0] == []
        with pytest.raises(StorageError):
            store._decode_plan(None, (("salary", 2),))(broken, span)


def good_payload(store: TableStore) -> bytes:
    return store._encode_row(7, 3.5, {"location": 1, "salary": 0},
                             {"id": 7, "name": "alice", "location": "Paris",
                              "score": 2.5, "salary": 2500, "active": True})


def value_offset(store: TableStore, payload: bytes, column: str) -> int:
    """Offset of ``column``'s type tag inside ``payload``."""
    offset = store._header.size
    for name in NAMES:
        if name == column:
            return offset
        _, offset = decode_value(payload, offset)
    raise AssertionError(column)


class TestCorruption:
    """Each damaged image must raise from the stand-alone decode and from a
    read of the same bytes out of a heap page."""

    def corruptions(self, store):
        good = good_payload(store)
        header = store._header.size
        name_at = value_offset(store, good, "name")
        score_at = value_offset(store, good, "score")
        salary_at = value_offset(store, good, "salary")
        return {
            "wrong field count": struct.pack("<H", 3) + good[2:],
            "wrong row-key tag": good[:2] + b"\x03" + good[3:],
            "wrong level tag": good[:header - 9] + b"\x02" + good[header - 8:],
            "truncated header": good[:header - 4],
            "missing field count": good[:1],
            "short TEXT payload": good[:name_at + 5 + 2],
            "short TEXT length": good[:name_at + 3],
            "short FLOAT payload": good[:score_at + 5],
            "short INT payload": good[:salary_at + 5],
            "missing tag": good[:score_at],
            "unknown tag": good[:score_at] + b"\x63" + good[score_at + 1:],
            "trailing bytes": good + b"\x00",
        }

    def test_good_payload_decodes(self):
        store = make_store()
        assert store._decode_row(good_payload(store)).values["name"] == "alice"

    @pytest.mark.parametrize("case", [
        "wrong field count", "wrong row-key tag", "wrong level tag",
        "truncated header", "missing field count", "short TEXT payload",
        "short TEXT length", "short FLOAT payload", "short INT payload",
        "missing tag", "unknown tag", "trailing bytes"])
    def test_damaged_record_raises_storage_error(self, case):
        store = make_store()
        bad = self.corruptions(store)[case]
        with pytest.raises(StorageError):
            store._decode_row(bad)
        # The same bytes inside a page: the record's own end bounds the
        # decode, not the end of the 4 KiB frame around it.  The damage is
        # planted in the page under the heap, as a bad disk would.
        filler = store.insert({"id": 1, "name": "f", "location": NULL, "score": 1.0,
                               "salary": 1, "active": NULL}, now=0.0)
        page_id = store.page_of(filler)
        store._locations[99] = RecordId(
            page_id, store.buffer_pool.get_page(page_id).insert(bad))
        assert store.page_of(99) == store.page_of(filler)
        with pytest.raises(StorageError):
            store.read(99)
        with pytest.raises(StorageError):
            list(store.scan())

    def test_pruned_decode_stops_before_a_damaged_tail(self):
        """Unchanged contract: a pruned decode reads no further than its last
        column, so only full decodes verify the tail."""
        store = make_store()
        bad = good_payload(store) + b"\x00"
        assert store._decode_row(bad, frozenset({"name"})).values == {"name": "alice"}
        with pytest.raises(StorageError):
            store._decode_row(bad)


def fill(store: TableStore, count: int):
    return [store.insert({"id": i, "name": f"n{i}", "location": "1 Main Street, Paris",
                          "score": 0.0, "salary": 2500 + i, "active": True}, now=0.0)
            for i in range(count)]


class TestLazyReaders:
    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_half_consumed_scan_under_deletes_and_relocating_degradation(self, strategy):
        store = make_store(strategy)
        keys = fill(store, 300)
        scan = store.scan()
        seen = [next(scan).row_key for _ in range(10)]
        # Delete rows of the batch being handed out and rows further on.
        for key in (keys[12], keys[13], keys[150]):
            store.delete(key, now=1.0)
        # INT salary → TEXT range grows every record: full pages relocate rows.
        store.degrade_many([([key for key in keys[5:120] if store.exists(key)],
                             "salary", SALARY, 1)], now=2.0)
        assert store.stats.relocations > 0
        for row in scan:
            seen.append(row.row_key)
            current = store.read(row.row_key)
            assert row.levels == current.levels
            assert row.values == current.values
            if row.row_key in keys[5:120]:
                assert row.levels["salary"] == 1 and isinstance(row.values["salary"], str)
        assert len(seen) == len(set(seen))
        assert set(seen) == set(keys) - {keys[12], keys[13], keys[150]}

    def test_fetch_re_resolves_keys_that_moved_or_vanished(self):
        store = make_store()
        keys = fill(store, 200)
        fetch = store.fetch(iter(keys))
        first = [next(fetch).row_key for _ in range(3)]
        store.delete(keys[5], now=1.0)
        store.degrade_many([([key for key in keys[3:100] if store.exists(key)],
                             "salary", SALARY, 1)], now=2.0)
        rest = list(fetch)
        got = first + [row.row_key for row in rest]
        assert sorted(got) == sorted(set(keys) - {keys[5]})
        for row in rest:
            assert row.levels == store.read(row.row_key).levels

    def test_limit_reads_no_more_than_a_page_past_k(self):
        store = make_store()
        fill(store, 300)
        before = store.stats.reads
        scan = store.scan()
        for _ in range(3):
            next(scan)
        scan.close()
        assert 3 <= store.stats.reads - before <= 3 + 300 // store.heap.page_count + 1

    def test_engine_cursor_interleaved_with_delete(self):
        """A lazy ``fetchone`` cursor and a DELETE in the same transaction."""
        connection = repro.connect()
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
        cursor.executemany("INSERT INTO t VALUES (?, ?)",
                           [(i, f"note-{i}") for i in range(400)])
        connection.commit()
        reader = connection.cursor()
        reader.execute("SELECT id FROM t")
        seen = [reader.fetchone()[0] for _ in range(5)]
        connection.cursor().execute("DELETE FROM t WHERE id >= 200 AND id < 300")
        while (row := reader.fetchone()) is not None:
            seen.append(row[0])
        connection.commit()
        assert len(seen) == len(set(seen))
        assert set(seen) == set(range(400)) - set(range(200, 300))
