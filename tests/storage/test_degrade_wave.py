"""The degradation wave kernel (``TableStore.degrade_many``).

* the spliced record is byte for byte ``_encode_row`` of the degraded row —
  the splice is a faster way to the same image, not a second record format;
* a wave costs the log O(chunks) records, none with a value byte in it;
* ``insert(..., returning=True)`` hands back exactly what ``read`` decodes.
"""

import random

import pytest

from repro.core.domains import (
    build_diagnosis_tree,
    build_location_tree,
    build_salary_ranges,
)
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, SUPPRESSED
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import TableStore
from repro.storage.pager import MemoryPager
from repro.storage.serialization import encode_value
from repro.storage.wal import LogRecordType, WriteAheadLog, decode_degrade_chunk

SCHEMES = {"location": build_location_tree(), "salary": build_salary_ranges(),
           "diagnosis": build_diagnosis_tree()}
ADDRESSES = SCHEMES["location"].leaves()
DIAGNOSES = SCHEMES["diagnosis"].leaves()


def make_store(strategy: str, page_size: int = 4096) -> TableStore:
    schema = TableSchema("patient", [
        Column("id", "INT", primary_key=True),
        Column("location", "TEXT", degradable=True, domain="location"),
        Column("name", "TEXT"),
        Column("salary", "INT", degradable=True, domain="salary"),
        Column("visits", "INT"),
        Column("diagnosis", "TEXT", degradable=True, domain="diagnosis"),
        Column("note", "TEXT"),
    ])
    pool = BufferPool(MemoryPager(page_size=page_size), capacity=32)
    return TableStore(schema, pool, WriteAheadLog(), strategy=strategy)


def random_row(rng: random.Random, row_id: int) -> dict:
    def maybe(value):
        return None if rng.random() < 0.15 else value

    return {"id": row_id,
            "location": maybe(rng.choice(ADDRESSES)),
            "name": maybe("n" * rng.randrange(0, 30)),
            "salary": maybe(rng.randrange(500, 9000)),
            "visits": rng.randrange(0, 50),
            "diagnosis": maybe(rng.choice(DIAGNOSES)),
            "note": maybe("x" * rng.randrange(0, 40))}


def degraded(row, steps):
    """The model: ``row`` after ``steps`` — ``{column: to_level}``."""
    values, levels = dict(row.values), dict(row.levels)
    for column, to_level in steps.items():
        old = values[column]
        if old is not NULL and old is not SUPPRESSED:
            values[column] = SCHEMES[column].generalize(
                old, to_level, from_level=levels[column])
        levels[column] = to_level
    return values, levels


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_spliced_record_is_encode_row_of_the_degraded_row(seed, strategy):
    """Waves over random rows — NULL and (later) SUPPRESSED values, one to
    three columns of a row at once, fields that grow (an integer salary into a
    range label) and shrink (an address into a city, anything into the
    suppression tag) — until every column is suppressed."""
    rng = random.Random(seed)
    store = make_store(strategy)
    keys = [store.insert(random_row(rng, i), now=float(i)) for i in range(1, 61)]
    grew = shrank = 0
    for wave in range(40):
        steps_of = {}
        for key in rng.sample(keys, rng.randrange(1, len(keys))):
            row = store.read(key)
            steps = {}
            for column in rng.sample(sorted(SCHEMES), rng.randrange(1, 4)):
                top = SCHEMES[column].max_level
                if row.levels[column] < top:
                    steps[column] = rng.randrange(row.levels[column] + 1, top + 1)
            if steps:
                steps_of[key] = (row, steps)
        if not steps_of:
            break
        before = {key: len(store.heap.read(store._location(key))) for key in steps_of}
        expected = {}
        for key, (row, steps) in steps_of.items():
            values, levels = degraded(row, steps)
            expected[key] = (values, levels, store._encode_row(
                key, row.inserted_at, levels, values))
        items = [([key], column, SCHEMES[column], to_level)
                 for key, (_row, steps) in steps_of.items()
                 for column, to_level in steps.items()]
        rng.shuffle(items)
        chunks = store.degrade_many(items, now=1000.0 + wave)
        assert sum(len(chunk.row_keys()) for chunk in chunks) == len(items)
        for key, (values, levels, image) in expected.items():
            stored = store.heap.read(store._location(key))
            grew += len(stored) > before[key]
            shrank += len(stored) < before[key]
            if strategy == "rewrite":
                assert stored == image
            else:       # same layout; the ciphertexts carry fresh nonces
                assert len(stored) == len(image)
            row = store.read(key)
            assert (row.values, row.levels) == (values, levels)
        store.heap.check()
    assert grew and shrank


def test_chunks_carry_the_value_transitions():
    store = make_store("rewrite")
    rows = [{"id": i, "location": ADDRESSES[i % 2], "name": "n", "salary": None,
             "visits": 0, "diagnosis": DIAGNOSES[0], "note": ""} for i in range(6)]
    keys = [store.insert(row, now=0.0) for row in rows]
    location = SCHEMES["location"]
    chunks = store.degrade_many(
        [(keys, "location", location, 1), (keys[:2], "salary", SCHEMES["salary"], 2)],
        now=1.0)
    by_column = {chunk.column: chunk for chunk in chunks}
    assert set(by_column) == {"location", "salary"}
    cities = [location.generalize(address, 1) for address in ADDRESSES[:2]]
    assert by_column["location"].transitions == {
        (ADDRESSES[0], cities[0]): keys[0::2], (ADDRESSES[1], cities[1]): keys[1::2]}
    # a NULL has nothing to degrade: its level moves, its value does not
    assert by_column["salary"].transitions == {(NULL, NULL): keys[:2]}
    assert (by_column["salary"].from_level, by_column["salary"].to_level) == (0, 2)


def test_wave_appends_o_chunks_records_without_a_value_byte():
    """Log-amplification guard: 1,000 rows take one step of one column."""
    store = make_store("rewrite")
    rng = random.Random(9)
    rows = [random_row(rng, i) for i in range(1, 1001)]
    keys = [store.insert(row, now=0.0) for row in rows]
    appended = store.wal.stats.appended
    store.degrade_many([(keys, "location", SCHEMES["location"], 2)], now=3600.0)
    wave = store.wal.records()[appended:]
    degrades = [r for r in wave if r.record_type is LogRecordType.DEGRADE]
    assert len(degrades) == 1               # one (column, 0 → 2) chunk
    assert len(wave) <= 3                   # + the scrub's audit record
    assert sorted(decode_degrade_chunk(degrades[0].after)[1]) == keys
    for record in wave:
        image = record.encode()
        assert record.before is None
        for row in rows:
            if row["location"] is not None:
                assert row["location"].encode() not in image
                assert encode_value(SCHEMES["location"].generalize(
                    row["location"], 2)) not in image


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
def test_insert_returning_equals_what_read_decodes(strategy):
    store = make_store(strategy)
    rng = random.Random(4)
    rows = [random_row(rng, i) for i in range(1, 30)]
    rows.append({"id": 99})                     # every other column defaults to NULL
    rows.append((100, ADDRESSES[0], "tuple", 1200, 3, DIAGNOSES[0], None))
    for row in rows:
        stored = store.insert(row, now=12.5, returning=True)
        assert stored == store.read(stored.row_key)
    assert store.read(store.insert({"id": 7}, now=1.0)).values["id"] == 7


def test_a_chunk_larger_than_one_record_is_cut_and_redone_whole(monkeypatch):
    """The record codec caps a payload at 65,535 fields: a chunk's key list is
    cut under it (here: at 2 keys), and redo reads every piece."""
    from repro.storage import wal as wal_module
    from repro.txn.recovery import RecoveryManager

    monkeypatch.setattr(wal_module, "DEGRADE_RECORD_KEYS", 2)
    store = make_store("rewrite")
    rng = random.Random(2)
    keys = [store.insert({**random_row(rng, i), "location": ADDRESSES[0]}, now=0.0)
            for i in range(1, 6)]
    store.degrade_many([(keys, "location", SCHEMES["location"], 1)], now=10.0)
    pieces = [decode_degrade_chunk(record.after) for record in store.wal
              if record.record_type is LogRecordType.DEGRADE]
    assert [len(row_keys) for _level, row_keys in pieces] == [2, 2, 1]
    assert sorted(key for _level, row_keys in pieces for key in row_keys) == keys
    report = RecoveryManager(store.wal, {"patient": store}).recover()
    assert (report.redone_degrade_chunks, report.redone_degrades) == (3, 0)
