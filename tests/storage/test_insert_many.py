"""``TableStore.insert_many`` — a statement's rows as one batch — is the
placement, the bytes and the statistics of inserting them one at a time.

* same ``(page, slot)`` per row, same free-space map and record count,
  byte-identical pages and ``INSERT`` images — on a heap with holes
  (removals) and rewritten records (degradation), so the tail, the
  roomiest-class choice and in-page compaction all take part;
* statistics of a batch — counts, NDV, min/max and the plan-cache *epoch*,
  whose bump threshold moves with the row count — equal the per-row
  sequence, for rows entering and leaving;
* every row is coerced before any is placed: a bad row inserts nothing.
"""

import random

import pytest

from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.errors import SchemaError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, SUPPRESSED
from repro.query.statistics import TableStatistics
from repro.storage.buffer import BufferPool
from repro.storage.crypto import KeyStore
from repro.storage.degradable_store import TableStore
from repro.storage.pager import MemoryPager
from repro.storage.wal import LogRecordType, WriteAheadLog

LOCATION = build_location_tree()
SALARY = build_salary_ranges()
ADDRESSES = sorted(LOCATION.values_at_level(0))
SCHEMA = TableSchema("person", [
    Column("id", "INT", primary_key=True),
    Column("name", "TEXT"),
    Column("location", "TEXT", degradable=True, domain="location"),
    Column("salary", "INT", degradable=True, domain="salary"),
])


def make_store(strategy: str) -> TableStore:
    pool = BufferPool(MemoryPager(page_size=512), capacity=6)
    return TableStore(SCHEMA, pool, WriteAheadLog(), strategy=strategy,
                      keystore=KeyStore(deterministic_seed=b"batch"))


def random_row(rng: random.Random, key: int) -> dict:
    return {"id": key, "name": "n" * rng.randrange(0, 70),
            "location": rng.choice(ADDRESSES) if rng.random() < 0.9 else None,
            "salary": rng.randrange(1000, 9000)}


def aged_store(strategy: str, seed: int) -> TableStore:
    """A heap with holes and rewritten records, the same every call."""
    rng = random.Random(seed)
    store = make_store(strategy)
    keys = [store.insert(random_row(rng, key), now=0.0) for key in range(60)]
    store.remove_many(rng.sample(keys, 25), now=1.0)
    live = [key for key in keys if store.exists(key)]
    store.degrade_many([(rng.sample(live, 10), "location", LOCATION, 3),
                        (rng.sample(live, 6), "salary", SALARY, 2)], now=2.0)
    return store


def images(store: TableStore, since: int, kind: LogRecordType):
    return [(record.row_key, record.after, record.txn_id, record.timestamp)
            for record in store.wal.records()[since:] if record.record_type is kind]


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@pytest.mark.parametrize("seed", range(6))
def test_a_batch_lands_where_one_by_one_inserts_land(strategy, seed):
    one, many = aged_store(strategy, seed), aged_store(strategy, seed)
    rng = random.Random(seed + 100)
    rows = [random_row(rng, 1000 + i) for i in range(rng.randrange(1, 90))]
    marks = len(one.wal), len(many.wal)

    keys = [one.insert(row, now=5.0, txn_id=7) for row in rows]
    stored = many.insert_many(rows, now=5.0, txn_id=7)

    assert [row.row_key for row in stored] == keys
    assert one._locations == many._locations
    assert (one.heap._free, one.heap._classes, one.heap.record_count) == \
        (many.heap._free, many.heap._classes, many.heap.record_count)
    assert one.heap.raw_image() == many.heap.raw_image()
    one.heap.check()
    many.heap.check()
    for kind in (LogRecordType.INSERT, LogRecordType.PAGE_ALLOC):
        assert images(one, marks[0], kind) == images(many, marks[1], kind)
    # What the batch hands back is what a read decodes.
    assert stored == [many.read(key) for key in keys]


def test_each_row_keeps_an_image_of_its_own():
    store = make_store("rewrite")
    keys = [row.row_key for row in store.insert_many(
        [random_row(random.Random(key), key) for key in range(40)], now=1.0)]
    assert all(len(store.wal.records_for("person", key)) == 1 for key in keys)
    store.wal.scrub_records([("person", keys[3])])
    assert store.wal.records_for("person", keys[3]) == []
    assert all(len(store.wal.records_for("person", key)) == 1
               for key in keys if key != keys[3])


def test_a_bad_row_inserts_nothing():
    store = make_store("rewrite")
    rows = [random_row(random.Random(key), key) for key in range(30)]
    rows[17]["salary"] = "plenty"
    appended, pages = store.wal.stats.appended, store.heap.page_count
    with pytest.raises(SchemaError):
        store.insert_many(rows, now=1.0)
    assert store.row_count == 0
    assert (store.wal.stats.appended, store.heap.page_count) == (appended, pages)


def statistics_state(stats: TableStatistics):
    return (stats.row_count, stats.epoch, stats._mods_since_epoch,
            {name: (dict(column.counts), column.ndv, column.non_missing,
                    column.missing, column.min_value, column.max_value)
             for name, column in stats.columns.items()})


@pytest.mark.parametrize("seed", range(8))
def test_batch_statistics_equal_the_per_row_sequence(seed):
    rng = random.Random(seed)
    schema = TableSchema("t", [Column("id", "INT", primary_key=True),
                               Column("v", "TEXT"), Column("n", "INT")])
    batched, single = TableStatistics(schema), TableStatistics(schema)
    held = []
    for _ in range(40):
        if held and rng.random() < 0.35:
            leaving = [held.pop(rng.randrange(len(held)))
                       for _ in range(rng.randrange(1, len(held) + 1))]
            batched.on_remove(leaving)
            for values in leaving:
                single.on_remove([values])
        else:
            entering = [{"id": rng.randrange(10**6),
                         "v": rng.choice(["a", "B", "b", "c", NULL, SUPPRESSED]),
                         "n": rng.choice([rng.randrange(-50, 50), None])}
                        for _ in range(rng.choice((1, 3, 64, 65, 300, 900)))]
            held += entering
            batched.on_insert(entering)
            for values in entering:
                single.on_insert([values])
        assert statistics_state(batched) == statistics_state(single)
    assert batched.epoch > 3        # the threshold was crossed, many times
