"""The table store's one record reader (``TableStore.row_reader``).

* equivalence — over random records carrying every value tag, both
  non-recoverability strategies and every column subset, the reader returns
  what the generic ``decode_stored`` plus the per-value reference loop below
  returns, sentinels by identity, in place at any offset of a larger buffer;
  and over random reader shapes (slot order, early/late split, level caps,
  demanded levels, a test) what that decode plus ``generalize`` returns;
* level-first exclusion — a row over its cap is dropped on the header alone;
* corruption — a damaged prefix or payload raises ``StorageError`` with the
  codec's own message (never a silent misread), a destroyed key reads
  ``SUPPRESSED``;
* the kernel cache — compiled code holding integers, ``None`` and fixed
  error strings only, one kernel for every binding of a template;
* inline comparisons — a pushed ``column op number`` answers as the closure
  it replaces, over numbers, sentinels and text;
* the wide prefix — a record whose leading fixed-width fields do not match
  it (a NULL, a short record) is walked, with the same answer and messages;
* laziness — a half-consumed scan interleaved with deletes and relocating
  degradation steps sees each row key at most once and never an image more
  accurate than what the store holds when the row is handed out.
"""

import gc
import itertools
import re
import struct
from types import CodeType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.errors import KeyDestroyedError, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, REMOVED, SUPPRESSED, is_missing
from repro.query import ast_nodes as ast
from repro.query.compiler import compile_predicate
from repro.query.operators import draining
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import DegradeChunk, StoredRow, TableStore
from repro.storage.heap import RecordId
from repro.storage.kernels import MESSAGES
from repro.storage.page import SlottedPage, record_span
from repro.storage.pager import MemoryPager
from repro.storage.serialization import decode_value
from repro.storage.wal import LogRecordType, WriteAheadLog, delta_entries

from .test_record_prefix import decode_stored, record_order

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
#: The same table with a second stable INT: a wider prefix.
WIDE = TableSchema("person", [SCHEMA.columns[0], Column("uid", "INT"), *SCHEMA.columns[1:]])
DEGRADABLE = ["location", "salary"]
SUBSETS = [None] + [frozenset(combo) for size in range(len(NAMES) + 1)
                    for combo in itertools.combinations(NAMES, size)]


def make_store(strategy: str = "rewrite", capacity: int = 16,
               schema: TableSchema = SCHEMA) -> TableStore:
    pool = BufferPool(MemoryPager(), capacity=capacity)
    return TableStore(schema, pool, WriteAheadLog(), strategy=strategy)


def framed(payloads, pad=0):
    """A page holding ``payloads``, a ``pad``-byte filler record beside
    each: its buffer, which the kernels read in place, and their slots."""
    page, slots = SlottedPage(), []
    for payload in payloads:
        if pad:
            page.insert(b"\xaa" * pad)
        slots.append(page.insert(payload))
    return page.frame, slots


def decode_alone(store, payload, columns=None):
    """``payload`` read as the one record of a page of its own by the
    store's :class:`StoredRow` reader for ``columns``."""
    page = SlottedPage(max(64, len(payload) + 16))     # the header and one slot
    return store._decode_plan(columns)(page.frame, (page.insert(payload),))[0][0]


def reference_decode(store: TableStore, payload: bytes):
    """What the reader must return: the generic record decode, then one
    decrypt per ciphertext field (the per-value loop the reader replaced)."""
    row_key, inserted_at, stored, flat = decode_stored(payload, len(DEGRADABLE))
    levels = dict(zip(DEGRADABLE, stored))
    values = {}
    for name, value in zip(record_order(store.schema), flat):
        if store.strategy == "crypto" and name in levels and isinstance(value, bytes):
            key_id = (SCHEMA.name, row_key, name, levels[name])
            try:
                value, _ = decode_value(store.keystore.decrypt(key_id, value), 0)
            except KeyDestroyedError:
                value = SUPPRESSED
        values[name] = value
    return row_key, inserted_at, levels, values


def assert_value(got, want) -> None:
    if want is None or want is NULL or want is SUPPRESSED or want is REMOVED:
        assert got is want
    else:
        assert type(got) is type(want) and got == want


def assert_same(row, expected, columns) -> None:
    row_key, inserted_at, levels, values = expected
    assert (row.row_key, row.inserted_at, row.levels) == (row_key, inserted_at, levels)
    wanted = NAMES if columns is None else [n for n in NAMES if n in columns]
    assert list(row.values) == wanted
    for name in wanted:
        assert_value(row.values[name], values[name])


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


SCHEMES = {"location": LOCATION, "salary": SALARY}


@st.composite
def leveled_records(draw):
    """A ``StoredRow`` whose degradable values are expressed at their stored
    levels (or missing), so they generalize."""
    levels = {name: draw(st.integers(0, 4)) for name in DEGRADABLE}
    accurate = {"location": draw(st.sampled_from(LOCATION.leaves())),
                "salary": draw(st.integers(0, 10**6))}
    values = {name: draw(strategy) for name, strategy in stable.items()}
    for name in DEGRADABLE:
        values[name] = draw(st.one_of(
            st.just(SCHEMES[name].generalize(accurate[name], levels[name])),
            st.sampled_from([NULL, REMOVED])))
    return StoredRow(draw(st.integers(1, 2**40)), {name: values[name] for name in NAMES},
                     levels, draw(st.floats(0, 1e12)))


class TestEquivalence:
    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    @given(record=records, pad=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_reader_matches_generic_decode_for_every_column_subset(
            self, strategy, record, pad):
        store = make_store(strategy)
        levels = dict(zip(DEGRADABLE, record["levels"]))
        payload = store.image(StoredRow(record["row_key"], {name: record[name] for name in NAMES},
                                        levels, record["inserted_at"]))
        expected = reference_decode(store, payload)
        frame, slots = framed([payload], pad)
        for columns in SUBSETS:
            assert_same(decode_alone(store, payload, columns), expected, columns)
            in_place = store._decode_plan(columns)(frame, slots)[0][0]
            assert_same(in_place, expected, columns)

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_reader_shape_matches_decode_stored_and_generalize(
            self, strategy, data):
        """A run of records at random levels, read under a random shape:
        columns in any slot order, any early/late split, any level caps,
        any demanded levels, with or without a test.  Each row must be
        what ``decode_stored`` (and a decrypt) gives, generalized with the
        scheme to its demanded level; the test must see the early columns
        so far and ``None`` in each late slot; rows, positions, drops and
        the excluded count must be those of the reference."""
        store = make_store(strategy)
        payloads = [store.image(data.draw(leveled_records())) for _ in
                    range(data.draw(st.integers(1, 4)))]
        pad = data.draw(st.integers(0, 5))
        frame, page_slots = framed(payloads, pad)
        columns = data.draw(st.permutations(NAMES))[:data.draw(st.integers(0, len(NAMES)))]
        slots = tuple((name, slot) for slot, name in enumerate(columns, 1))
        early = frozenset(data.draw(st.sets(st.sampled_from(NAMES))))
        caps = tuple((name, data.draw(st.integers(0, 4))) for name in DEGRADABLE
                     if data.draw(st.booleans()))
        demanded = {name: data.draw(st.one_of(st.none(), st.integers(0, 4)))
                    for name in DEGRADABLE if name in columns}
        schemes = {name: (level, SCHEMES[name]) for name, level in demanded.items()}
        verdicts = data.draw(st.one_of(st.none(), st.lists(
            st.booleans(), min_size=len(payloads), max_size=len(payloads))))
        seen = []

        def test(row):
            seen.append(row)
            return verdicts[len(seen) - 1]

        reader = store.row_reader(slots, early, caps, schemes,
                                  None if verdicts is None else test)
        rows, positions, drops, excluded = reader(frame, page_slots)

        want_rows, want_positions, want_drops, want_seen = [], [], [], []
        dropped = 0
        for position, payload in enumerate(payloads):
            row_key, _inserted_at, levels, values = reference_decode(store, payload)
            if any(levels[name] > cap for name, cap in caps):
                dropped += 1
                continue
            for name, level in demanded.items():
                value = values[name]
                if level is not None and levels[name] < level and not is_missing(value):
                    values[name] = SCHEMES[name].generalize(value, level,
                                                            from_level=levels[name])
            row = (row_key, *(values[name] for name in columns))
            if verdicts is not None:
                want_seen.append((row_key, *(values[name] if name in early else None
                                             for name in columns)))
                if not verdicts[len(want_seen) - 1]:
                    continue
            want_rows.append(row)
            want_positions.append(position)
            want_drops.append(dropped)
        assert (positions, drops, excluded) == (want_positions, want_drops, dropped)
        assert len(rows) == len(want_rows) and len(seen) == len(want_seen)
        for got, want in zip([*rows, *seen], [*want_rows, *want_seen]):
            assert len(got) == len(want)
            for got_value, want_value in zip(got, want):
                assert_value(got_value, want_value)

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_read_scan_and_fetch_agree_with_the_log_image(self, strategy):
        store = make_store(strategy)
        keys = [store.insert({"id": i, "name": f"n{i}", "location": "1 Main Street, Paris",
                              "score": i / 3, "salary": 1000 + i, "active": i % 2 == 0},
                             now=float(i)) for i in range(200)]
        assert store.heap.page_count > 1
        images = {row_key: image for record in store.wal
                  if record.record_type is LogRecordType.DELTA
                  for row_key, _weight, image in delta_entries(record)}
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
        # A 14-byte name: 86-byte records, the first 48 of them on page 0.
        keys = [store.insert({"id": i, "name": "x" * 14, "location": "1 Main Street, Paris",
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
        broken = payload[:store._prefix.size] + b"\xff" * 8
        frame, slots = framed([broken])
        assert store._decode_plan(None, (("salary", 1),))(frame, slots)[0] == []
        with pytest.raises(StorageError):
            store._decode_plan(None, (("salary", 2),))(frame, slots)


def good_payload(store: TableStore) -> bytes:
    return store.image(StoredRow(7, {"id": 7, "uid": 8, "name": "alice", "location": "Paris",
                                     "score": 2.5, "salary": 2500, "active": True},
                                 {"location": 1, "salary": 0}, 3.5))


def value_offset(store: TableStore, payload: bytes, column: str) -> int:
    """Offset of ``column``'s type tag inside ``payload``."""
    offset = store._prefix.size
    for name in record_order(store.schema):
        if name == column:
            return offset
        _, offset = decode_value(payload, offset)
    raise AssertionError(column)


class TestCorruption:
    """Each damaged image must raise from the stand-alone decode and from a
    read of the same bytes out of a heap page."""

    def corruptions(self, store):
        good = good_payload(store)
        prefix = store._prefix
        header = prefix.size
        key, time = prefix.key_offset, prefix.time_offset
        name_at = value_offset(store, good, "name")
        score_at = value_offset(store, good, "score")
        salary_at = value_offset(store, good, "salary")
        return {
            "wrong field count": struct.pack("<H", 3) + good[2:],
            "wrong row-key tag": good[:key] + b"\x03" + good[key + 1:],
            "wrong insertion-time tag": good[:time] + b"\x01" + good[time + 1:],
            "truncated header": good[:header - 4],
            "missing field count": good[:1],
            "short TEXT payload": good[:name_at + 2 + 2],
            "short TEXT length": good[:name_at + 1],
            "short FLOAT payload": good[:score_at + 5],
            "short INT payload": good[:salary_at + 3],
            "missing tag": good[:score_at],
            "unknown tag": good[:score_at] + b"\x63" + good[score_at + 1:],
            "trailing bytes": good + b"\x00",
        }

    def test_good_payload_decodes(self):
        store = make_store()
        assert decode_alone(store, good_payload(store)).values["name"] == "alice"

    #: case → the message of a full decode, and of a decode that reads the
    #: last column only (every field before it byte-skipped: a run's payload
    #: bound is checked at its end).
    MESSAGES = {
        "wrong field count": ("table 'person': malformed record with 3 fields "
                              "(expected 10)",) * 2,
        "wrong row-key tag": ("table 'person': malformed record header (row key "
                              "and insertion time must be INT and FLOAT)",) * 2,
        "wrong insertion-time tag": ("table 'person': malformed record header (row key "
                                     "and insertion time must be INT and FLOAT)",) * 2,
        "truncated header": ("truncated record: short header",) * 2,
        "missing field count": ("truncated record: missing field count",) * 2,
        "short TEXT payload": ("truncated record: short string payload",
                               "truncated record: no type tag"),
        "short TEXT length": ("truncated record: short length prefix",) * 2,
        "short FLOAT payload": ("truncated record: short FLOAT payload",
                                "truncated record: no type tag"),
        "short INT payload": ("truncated record: short INT payload",
                              "truncated record: short payload"),
        "missing tag": ("truncated record: no type tag",) * 2,
        "unknown tag": ("unknown type tag 99 at offset {at}",) * 2,
        "trailing bytes": ("trailing bytes after record payload",) * 2,
    }

    @pytest.mark.parametrize("case", [
        "wrong field count", "wrong row-key tag", "wrong insertion-time tag",
        "truncated header", "missing field count", "short TEXT payload",
        "short TEXT length", "short FLOAT payload", "short INT payload",
        "missing tag", "unknown tag", "trailing bytes"])
    def test_damaged_record_raises_storage_error(self, case):
        self.check(make_store(), case)

    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_a_wide_prefix_keeps_every_message(self, case):
        """Stable INT, INT and FLOAT columns, then a TEXT: a good record's
        wide prefix covers the three and the TEXT's head (the record stores
        them first, ``score`` ahead of ``name`` though declared after it), a
        damaged one raises as the field-by-field walk does."""
        store = make_store(schema=WIDE)
        assert store._wide[2:] == ((4, 4, 8), True)
        self.check(store, case)

    def check(self, store, case):
        bad = self.corruptions(store)[case]
        full, skipped = (re.escape(message.replace(
            "expected 10", f"expected {store._field_count}")).replace(r"\{at\}", "{at}")
            for message in self.MESSAGES[case])
        at = value_offset(store, good_payload(store), "score")
        # A stand-alone image is read as the one record of a (64-byte or
        # just large enough) page of its own, at the page's end.
        alone = max(64, len(bad) + 16) - len(bad) + at
        with pytest.raises(StorageError, match=f"^{full.format(at=alone)}$"):
            decode_alone(store, bad)
        with pytest.raises(StorageError, match=f"^{skipped.format(at=alone)}$"):
            decode_alone(store, bad, frozenset({"active"}))
        # The same bytes inside a page: the record's own end bounds the
        # decode, not the end of the 4 KiB frame around it.  The damage is
        # planted in the page under the heap, as a bad disk would.
        filler = store.insert({"id": 1, "name": "f", "location": NULL, "score": 1.0,
                               "salary": 1, "active": NULL}, now=0.0)
        page_id = store.page_of(filler)
        store._locations[99] = RecordId(
            page_id, store.buffer_pool.get_page(page_id).insert(bad))
        assert store.page_of(99) == store.page_of(filler)
        start = record_span(store.heap.frame(page_id), store._locations[99].slot)[0]
        in_page = f"^{full.format(at=start + at)}$"
        with pytest.raises(StorageError, match=in_page):
            store.read(99)
        with pytest.raises(StorageError, match=in_page):
            list(store.scan())

    def test_pruned_decode_stops_before_a_damaged_tail(self):
        """Unchanged contract: a pruned decode reads no further than its last
        column, so only full decodes verify the tail."""
        store = make_store()
        bad = good_payload(store) + b"\x00"
        assert decode_alone(store, bad, frozenset({"name"})).values == {"name": "alice"}
        with pytest.raises(StorageError):
            decode_alone(store, bad)


def constants(code):
    """Every constant of ``code`` and of the code objects nested in it."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from constants(const)
        else:
            yield const


class TestKernelCache:
    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_cached_kernels_hold_code_only(self, strategy):
        """The per-store cache maps reader shapes — each at both paces — to
        compiled factories whose code holds integers, ``None`` and the fixed
        error strings — never a table or column name, a parameter or a value
        — and that close over nothing."""
        store = make_store(strategy)
        keys = fill(store, 60)
        store.degrade_many([(keys[:20], "salary", SALARY, 1)], now=1.0)
        for columns in SUBSETS:
            assert all(row.row_key in keys for row in store.scan(columns, [("salary", 1)]))
            names = NAMES if columns is None else [n for n in NAMES if n in columns]
            slots = tuple((name, slot) for slot, name in enumerate(names, 1))
            schemes = {name: (2, SCHEMES[name]) for name in DEGRADABLE if name in names}
            for early in (frozenset(names), frozenset(names[-1:])):
                reader = store.row_reader(slots, early, (("location", 3), ("salary", 2)),
                                          schemes, lambda row: row[0] % 2 == 0)
                rows = list(store.scan(reader=reader))
                assert [row[0] for row in rows] == [key for key in keys if key % 2 == 0]
                drained = [row for run in store.runs(reader=reader, drain=draining)
                           for row in run]
                assert drained == rows
        readers = [key for key in store._kernels if key[0] not in ("row", "wave")]
        assert len(readers) > 4 * len(SUBSETS)
        assert {store._shape(*key).drained for key in readers} == {False, True}
        for factory in store._kernels.values():
            assert factory.__closure__ is None and factory.__defaults__ is None
            for const in constants(factory.__code__):
                assert const is None or type(const) is int or const in MESSAGES, const

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_wave_kernels_hold_code_only_and_no_memo_outlives_its_wave(self, strategy):
        """Wave splicers share the cache: one per step shape (a salary step;
        a location step; both; two salary steps), code only.  Their memos and
        chunk lanes are the wave's: once it returns, no object anywhere maps
        an encoded field to its degraded image, and none holds a lane
        entry — only the chunks the wave handed back survive."""
        store = make_store(strategy)
        keys = fill(store, 60)
        store.degrade_many([(keys[:30], "salary", SALARY, 1),
                            (keys[20:40], "location", LOCATION, 1)], now=1.0)
        chunks = store.degrade_many([(keys[:10], "salary", SALARY, 2),
                                     (keys[:10], "salary", SALARY, 3)], now=2.0)
        waves = [key for key in store._kernels if key[0] == "wave"]
        assert len(waves) == 4
        for key in waves:
            factory = store._kernels[key]
            assert factory.__closure__ is None and factory.__defaults__ is None
            for const in constants(factory.__code__):
                assert const is None or type(const) is int or const in MESSAGES, const
        assert [(chunk.from_level, chunk.to_level) for chunk in chunks] == [(1, 2), (2, 3)]
        gc.collect()
        for held in gc.get_objects():
            if isinstance(held, tuple) and len(held) == 2:
                assert not isinstance(held[1], DegradeChunk), "a lane entry outlived its wave"
            elif isinstance(held, dict) and held and all(type(key) is bytes for key in held):
                assert not any(isinstance(entry, tuple) and len(entry) == 3
                               for entry in held.values()), "a memo outlived its wave"


    def test_bindings_share_one_kernel_holding_no_number(self):
        """Every binding of a template — and a FLOAT binding's template too —
        runs the one kernel of its comparisons' ``(slot, operator)`` shape and
        pace (the first execution reads lazily and then drains: both paces);
        the numbers reach it as arguments, never as code constants."""
        connection = repro.connect()
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, note TEXT)")
        cursor.executemany("INSERT INTO t VALUES (?, ?, ?)",
                           [(i, i * 7, f"n{i}") for i in range(300)])
        sql = "SELECT id, note FROM t WHERE v >= ? AND v < ?"
        cursor.execute(sql, (7, 987651))
        assert [row[0] for row in cursor.fetchall()] == list(range(1, 300))
        store = connection.engine.table_store("t")
        kernels = len(store._kernels)
        for low, high in ((140, 700), (14.5, 700.25), (0, 2100)):
            cursor.execute(sql, (low, high))
            assert [row[0] for row in cursor.fetchall()] == \
                [i for i in range(300) if low <= i * 7 < high]
            assert len(store._kernels) == kernels
        for factory in store._kernels.values():
            held = set(constants(factory.__code__))
            assert not held & {987651, 140, 700, 14.5, 700.25, 2100}
        connection.close()


class TestInlineComparisons:
    """A kernel comparison answers as the ``column op number`` closure it
    replaces: ``float(value) op float(number)`` for an int or float value,
    ``compare`` for anything else — NULL, SUPPRESSED, text."""

    VALUES = [3, -2, 7, 3.0, 7.5, -0.5, NULL, SUPPRESSED, "2000-3000", "abc", 3, NULL]

    def store(self, strategy="rewrite"):
        """One record per value of :attr:`VALUES` in its ``score`` field,
        written as it is (no column coercion)."""
        store = make_store(strategy)
        keys = list(range(1, len(self.VALUES) + 1))
        names = store.schema.column_names()
        levels = {column.name: 0 for column in store.schema.degradable_columns()}
        payloads = [store.image(StoredRow(key, dict(zip(names, [key, "x", NULL, value, 1, True])),
                                          levels, 0.0))
                    for key, value in zip(keys, self.VALUES)]
        store._locations.update(zip(keys, store.heap.insert_many(payloads)))
        return store

    @pytest.mark.parametrize("operator", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("number", [3, 3.0, -2, 7.5, 0, -0.5])
    def test_equals_the_closure(self, operator, number):
        store = self.store()
        slots = (("id", 1), ("score", 2))
        closure = compile_predicate(ast.Comparison(ast.ColumnRef("score"), operator,
                                                   ast.Literal(number)), lambda ref: 2)
        inline = store.row_reader(slots, frozenset({"score"}),
                                  comparisons=((2, operator, number),))
        tested = store.row_reader(slots, frozenset({"score"}), predicate=closure)
        got = list(store.scan(reader=inline))
        assert got == list(store.scan(reader=tested))
        assert [row[0] for row in got] == [key for key, value in enumerate(self.VALUES, 1)
                                           if closure((key, key, value))]

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_parameters_through_the_engine(self, strategy):
        """``?`` bound to an INT or a FLOAT, over a degradable INT column
        holding numbers, ranges (text), NULL and SUPPRESSED values."""
        db = repro.InstantDB(strategy=strategy)
        salary = db.register_domain(build_salary_ranges())
        location = db.register_domain(build_location_tree())
        db.register_policy(repro.AttributeLCP(
            salary, transitions=["1 h", "1 d", "3 d", "1 month"], name="salary_lcp"))
        db.register_policy(repro.AttributeLCP(location, states=[0, 1],
                                              transitions=["12 months"], name="slow_lcp"))
        # the slow location keeps a row whose salary is suppressed
        db.execute("CREATE TABLE pay (id INT PRIMARY KEY, salary INT DEGRADABLE DOMAIN "
                   "salary POLICY salary_lcp, place TEXT DEGRADABLE DOMAIN location "
                   "POLICY slow_lcp)")
        # a purpose that leaves the salary unconstrained sees every level
        db.execute("DECLARE PURPOSE audit SET ACCURACY LEVEL city FOR pay.place")
        for wave, pause in enumerate((40 * 86400.0, 2 * 3600.0, 0.0)):
            db.executemany("INSERT INTO pay VALUES (?, ?, ?)",
                           [(i, None if i % 7 == 0 else 1500 + 37 * i, "1 Main Street, Paris")
                            for i in range(wave * 40, wave * 40 + 40)])
            db.advance_time(pause)
        everything = db.execute("SELECT id, salary FROM pay", purpose="audit").rows
        assert {repr(value) if is_missing(value) else type(value)
                for _key, value in everything} == {int, str, repr(NULL), repr(SUPPRESSED)}
        for operator in ("=", "!=", "<", "<=", ">", ">="):
            closure_of = {}
            for number in (1500 + 37 * 90, 3000.5, 5200, 1.0e9):
                result = db.execute(f"SELECT id FROM pay WHERE salary {operator} ?",
                                    params=(number,), purpose="audit")
                assert result.pipeline.find("SeqScan").comparisons[0][1:] == (operator, number)
                closure = closure_of.setdefault(number, compile_predicate(ast.Comparison(
                    ast.ColumnRef("salary"), operator, ast.Literal(number)), lambda ref: 1))
                assert sorted(result.rows) == sorted(
                    (key,) for key, value in everything if closure((key, value)))


class TestWidePrefix:
    def test_a_null_in_a_leading_int_takes_the_walk(self):
        """Rows whose leading INT or TEXT is NULL fail the wide prefix's tag
        check and are walked: same values, same test outcome."""
        store = make_store(schema=WIDE)
        rows = [{"id": i, "uid": None if i % 3 == 0 else 10 * i,
                 "name": None if i % 5 == 0 else f"n{i}", "location": "1 Main Street, Paris",
                 "score": 0.5, "salary": 2500 + i, "active": True} for i in range(60)]
        keys = [store.insert(row, now=0.0) for row in rows]
        names = [column.name for column in WIDE.columns]
        for columns in (None, frozenset({"uid"}), frozenset({"name", "salary"}),
                        frozenset({"id", "active"})):
            assert [row.values for row in store.scan(columns)] == [
                {name: NULL if row[name] is None else row[name] for name in names
                 if columns is None or name in columns} for row in rows]
        reader = store.row_reader((("id", 1), ("uid", 2), ("name", 3)), frozenset({"uid"}),
                                  comparisons=((2, ">", 100),))
        assert [row[0] for row in store.scan(reader=reader)] == [
            key for key, row in zip(keys, rows) if row["uid"] is not None and row["uid"] > 100]


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
            store.delete([key], now=1.0)
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
        store.delete([keys[5]], now=1.0)
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
        page = max(map(len, map(store.heap.live_slots, store.heap.page_ids())))
        assert 3 <= store.stats.reads - before <= 3 + page

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

    def test_engine_cursor_interleaved_with_update(self):
        """A lazy ``fetchone`` cursor on a streaming root and an UPDATE in
        the same transaction that grows the records, relocating some: every
        row handed out after the UPDATE shows the new value, no key twice,
        none lost."""
        connection = repro.connect()
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
        cursor.executemany("INSERT INTO t VALUES (?, ?)",
                           [(i, f"note-{i}") for i in range(400)])
        connection.commit()
        reader = connection.cursor()
        reader.execute("SELECT id, note FROM t")
        before = [reader.fetchone() for _ in range(5)]
        grown = "updated-" + "x" * 40
        connection.cursor().execute("UPDATE t SET note = ? WHERE id >= 2 AND id < 300",
                                    (grown,))
        assert connection.engine.table_store("t").stats.relocations > 0
        after = []
        while (row := reader.fetchone()) is not None:
            after.append(row)
        connection.commit()
        seen = [key for key, _note in before + after]
        assert len(seen) == len(set(seen)) and set(seen) == set(range(400))
        assert before == [(i, f"note-{i}") for i in range(5)]
        assert all(note == (grown if 2 <= key < 300 else f"note-{key}") for key, note in after)
