"""``TableStore.insert_many`` — a statement's rows as one batch — is the
bytes and the statistics of inserting them one at a time, placed by the
heap's batch rule.

* same row keys and row images in the log as one-by-one inserts; the
  ``(page, slot)`` of each row, the free-space map, the record count and
  the pages' bytes are those of the heap's rule applied record by record
  (``test_heap.place_one_by_one``: a batch fills the page it chose before it
  chooses again) — on a heap with holes (removals) and rewritten records
  (degradation), so the tail, the roomiest-class choice and in-page
  compaction all take part;
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
from repro.storage.wal import LogRecordType, WriteAheadLog, delta_entries

from .test_heap import place_one_by_one

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


def images(store: TableStore, since: int):
    """``(row key, weight, image, txn, time)`` of each entry of the records
    logged since ``since`` — all of them ``DELTA``s — in row-key order: a
    batch logs its rows by the page they landed on."""
    records = store.wal.records()[since:]
    assert {record.record_type for record in records} == {LogRecordType.DELTA}
    return sorted((row_key, weight, image, record.txn_id, record.timestamp)
                  for record in records
                  for row_key, weight, image in delta_entries(record))


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@pytest.mark.parametrize("seed", range(6))
def test_a_batch_lands_where_the_record_loop_places_it(strategy, seed):
    one, many, placed = (aged_store(strategy, seed) for _ in range(3))
    rng = random.Random(seed + 100)
    rows = [random_row(rng, 1000 + i) for i in range(rng.randrange(1, 90))]
    marks = len(one.wal), len(many.wal)

    keys = [one.insert(row, now=5.0, txn_id=7) for row in rows]
    stored = many.insert_many(rows, now=5.0, txn_id=7)

    assert [row.row_key for row in stored] == keys
    assert images(one, marks[0]) == images(many, marks[1])
    ids = place_one_by_one(placed.heap, [one.heap.read(one._locations[key]) for key in keys])
    assert ids == [many._locations[key] for key in keys]
    assert (placed.heap._free, placed.heap._classes, placed.heap.record_count) == \
        (many.heap._free, many.heap._classes, many.heap.record_count)
    assert placed.heap.raw_image() == many.heap.raw_image()
    one.heap.check()
    many.heap.check()
    # One DELTA per page the batch filled.
    runs = [record for record in many.wal.records()[marks[1]:]
            if record.record_type is LogRecordType.DELTA]
    assert len(runs) == len({many.page_of(key) for key in keys})
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


def by_column(rows):
    """Rows (column → value mappings) as the fan-out hands them over."""
    return {name: [row[name] for row in rows] for name in ("id", "v", "n")}, len(rows)


@pytest.mark.parametrize("seed", range(8))
def test_batch_statistics_equal_the_per_row_sequence(seed):
    """Inserts, removals and wave chunks (a batch of ``(old, new, count)``
    transitions) leave min, max, NDV, counts, missing and the epoch of every
    column where the same changes one row at a time leave them."""
    rng = random.Random(seed)
    schema = TableSchema("t", [Column("id", "INT", primary_key=True),
                               Column("v", "TEXT"), Column("n", "INT")])
    batched, single = TableStatistics(schema), TableStatistics(schema)
    held = []
    for _ in range(60):
        draw = rng.random()
        if held and draw < 0.3:
            leaving = [held.pop(rng.randrange(len(held)))
                       for _ in range(rng.randrange(1, len(held) + 1))]
            batched.on_remove(*by_column(leaving))
            for values in leaving:
                single.on_remove(*by_column([values]))
        elif held and draw < 0.5:      # a wave chunk: some rows of a value take another
            column = rng.choice(("v", "n"))
            pool = {"v": ["a", "B", "b", "c", "city", NULL, SUPPRESSED],
                    "n": [rng.randrange(-50, 50), -100, 100, 0.5, None, SUPPRESSED]}[column]
            moves = {}
            for row in rng.sample(held, rng.randrange(1, len(held) + 1)):
                new = rng.choice(pool)
                moves.setdefault((row[column], new), []).append(row)
                row[column] = new
            batched.on_value_changes(column, [(old, new, len(rows))
                                              for (old, new), rows in moves.items()])
            for (old, new), rows in moves.items():
                for _row in rows:
                    single.on_value_changes(column, [(old, new, 1)])
        else:
            entering = [{"id": rng.randrange(10**6),
                         "v": rng.choice(["a", "B", "b", "c", NULL, SUPPRESSED]),
                         "n": rng.choice([rng.randrange(-50, 50), None])}
                        for _ in range(rng.choice((1, 3, 64, 65, 300, 900)))]
            held += entering
            batched.on_insert(*by_column(entering))
            for values in entering:
                single.on_insert(*by_column([values]))
        assert statistics_state(batched) == statistics_state(single)
    assert batched.epoch > 3        # the threshold was crossed, many times
