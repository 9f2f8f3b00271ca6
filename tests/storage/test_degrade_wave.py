"""The degradation wave kernel (``TableStore.degrade_many``).

* the spliced record is byte for byte ``TableStore.image`` of the degraded row —
  the splice is a faster way to the same image, not a second record format
  (seeded waves, and a property over random rows, columns and step lists);
* a wave that raises has changed nothing: heap, log, indexes;
* a wave logs nothing but its scrub's audit record — its synced pages are
  the record of its steps — and an ingest one ``DELTA`` per page it filled;
* ``insert(..., returning=True)`` hands back exactly what ``read`` decodes.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.domains import (
    build_diagnosis_tree,
    build_location_tree,
    build_salary_ranges,
)
from repro.core.errors import PolicyError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, SUPPRESSED
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import StoredRow, TableStore
from repro.storage.pager import MemoryPager
from repro.storage.serialization import encode_value
from repro.storage.wal import LogRecordType, WriteAheadLog

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
            expected[key] = (values, levels, store.image(
                StoredRow(key, values, levels, row.inserted_at)))
        items = [([key], column, SCHEMES[column], to_level)
                 for key, (_row, steps) in steps_of.items()
                 for column, to_level in steps.items()]
        rng.shuffle(items)
        chunks = store.degrade_many(items, now=1000.0 + wave)
        assert sum(len(keys) for chunk in chunks for keys in chunk.transitions.values()) == len(items)
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


def row_strategy(row_id: int):
    """A random row; a missing value is NULL."""
    def maybe(values):
        return st.one_of(st.none(), values)

    return st.fixed_dictionaries({
        "id": st.just(row_id),
        "location": maybe(st.sampled_from(ADDRESSES)),
        "name": maybe(st.text(alphabet="nx", max_size=30)),
        "salary": maybe(st.integers(500, 9000)),
        "visits": st.integers(0, 50),
        "diagnosis": maybe(st.sampled_from(DIAGNOSES)),
        "note": maybe(st.text(alphabet="xy", max_size=40))})


@given(data=st.data(), strategy=st.sampled_from(["rewrite", "crypto"]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_wave_kernel_output_is_encode_row_of_the_model(data, strategy):
    """Two waves over 1–30 random rows on 1 KiB pages: each row takes 0–2
    steps on each of 1–3 degradable columns (a step to the level it is at is
    a no-op; several steps chain), values are NULL or reach SUPPRESSED,
    fields grow (a salary into a range label, relocating off a full page) and
    shrink.  Every record afterwards is ``image`` of the model."""
    store = make_store(strategy, page_size=1024)
    count = data.draw(st.integers(1, 30), label="rows")
    rows = [data.draw(row_strategy(row_id), label="row") for row_id in range(1, count + 1)]
    keys = [row.row_key for row in store.insert_many(rows, now=0.0)]
    columns = data.draw(st.lists(st.sampled_from(sorted(SCHEMES)), min_size=1, max_size=3,
                                 unique=True), label="columns")
    for wave in range(2):
        items, expected, applied = [], {}, 0
        for key in data.draw(st.permutations(keys), label="order"):
            row = store.read(key)
            values, levels = dict(row.values), dict(row.levels)
            for column in columns:
                scheme = SCHEMES[column]
                for bump in data.draw(st.lists(st.integers(0, 3), max_size=2), label="steps"):
                    to_level = min(levels[column] + bump, scheme.max_level)
                    items.append(([key], column, scheme, to_level))
                    old = values[column]
                    applied += to_level != levels[column]
                    if to_level != levels[column] and old is not NULL and old is not SUPPRESSED:
                        values[column] = scheme.generalize(old, to_level,
                                                           from_level=levels[column])
                    levels[column] = to_level
            expected[key] = (values, levels, store.image(
                StoredRow(key, values, levels, row.inserted_at)))
        chunks = store.degrade_many(items, now=10.0 + wave)
        assert sum(len(keys) for chunk in chunks for keys in chunk.transitions.values()) == applied
        for key, (values, levels, image) in expected.items():
            stored = store.heap.read(store._location(key))
            if strategy == "rewrite":
                assert stored == image
            else:       # same layout; the ciphertexts carry fresh nonces
                assert len(stored) == len(image)
            row = store.read(key)
            assert (row.values, row.levels) == (values, levels)
        store.heap.check()


def test_a_growing_wave_relocates_off_a_full_page_byte_identically():
    """Every salary of full 1 KiB pages turns into a range label at once:
    records move off their page, and each is still ``image``."""
    store = make_store("rewrite", page_size=1024)
    rng = random.Random(11)
    keys = [row.row_key for row in store.insert_many(
        [{**random_row(rng, i), "salary": 1000 + i, "name": "n" * 20, "note": "x" * 20}
         for i in range(1, 81)], now=0.0)]
    salary = SCHEMES["salary"]
    expected = {}
    for key in keys:
        row = store.read(key)
        values = {**row.values, "salary": salary.generalize(row.values["salary"], 1)}
        expected[key] = store.image(StoredRow(key, values, {**row.levels, "salary": 1},
                                              row.inserted_at))
    store.degrade_many([(keys, "salary", salary, 1)], now=1.0)
    assert store.stats.relocations > 0
    for key, image in expected.items():
        assert store.heap.read(store._location(key)) == image
    store.heap.check()


@pytest.mark.parametrize("seed", [3, 8])
def test_a_wave_that_raises_has_changed_nothing(seed):
    """A wave meets an irreversible step on its *second* page: the first
    page's rows must not keep their degraded images (with no log record,
    no index or statistics update and their accurate log images in place).
    The wave splices every page before it writes one."""
    store = make_store("rewrite", page_size=1024)
    rng = random.Random(seed)
    keys = [row.row_key for row in store.insert_many(
        [random_row(rng, i) for i in range(1, 41)], now=0.0)]
    first, second = sorted({store.page_of(key) for key in keys})[:2]
    on_first = next(key for key in keys if store.page_of(key) == first)
    on_second = next(key for key in keys if store.page_of(key) == second)
    location = SCHEMES["location"]
    store.degrade_many([([on_second], "location", location, 2)], now=1.0)
    heap, logged = store.heap.raw_image(), len(store.wal)
    images = {key: len(store.wal.records_for("patient", key)) for key in keys}
    handed = []
    with pytest.raises(PolicyError, match="irreversible"):
        store.degrade_many([([on_first, on_second], "location", location, 1)], now=2.0,
                           on_chunk=handed.append)
    assert store.heap.raw_image() == heap
    assert len(store.wal) == logged
    assert handed == []                          # the index/statistics fan-out
    assert {key: len(store.wal.records_for("patient", key)) for key in keys} == images
    assert store.read(on_first).levels["location"] == 0


def test_a_wave_that_raises_leaves_the_engine_as_it_was():
    """The same, through the engine's fan-out: indexes, statistics and the
    schedule are what they were before the wave."""
    from ..conftest import build_engine, derived_state

    db = build_engine()
    db.execute("CREATE INDEX idx_location ON person (location) USING gt")
    rng = random.Random(5)
    db.executemany("INSERT INTO person VALUES (?, ?, ?, ?, ?, ?)",
                   [(i, i % 7, f"p{i}", rng.choice(ADDRESSES), 1000 + i, "walk")
                    for i in range(1, 121)])
    store, info = db.table_store("person"), db.catalog.table("person")
    keys = store.row_keys()
    first, second = sorted({store.page_of(key) for key in keys})[:2]
    on_first = next(key for key in keys if store.page_of(key) == first)
    on_second = next(key for key in keys if store.page_of(key) == second)
    location = SCHEMES["location"]
    fan_out = lambda chunk: db._apply_delta(info, chunk=chunk)  # noqa: E731
    store.degrade_many([([on_second], "location", location, 2)], now=1.0, on_chunk=fan_out)
    before, heap, logged = derived_state(db, "person"), store.heap.raw_image(), len(db.wal)
    with pytest.raises(PolicyError):
        store.degrade_many([([on_first, on_second], "location", location, 1)], now=2.0,
                           on_chunk=fan_out)
    assert derived_state(db, "person") == before
    assert store.heap.raw_image() == heap and len(db.wal) == logged


def test_work_counts_of_a_cohort_insert_and_its_wave():
    """Exact log work, by record type (``WALStats.appended_by_type``): a
    120-row cohort fills 4 pages — 4 ``DELTA`` appends, the pages naming
    their owner themselves; its wave takes every row's location and 40 salaries one level
    on — one ``SCRUB`` audit record and nothing else (the synced pages are the
    record of the steps), and one scrubbed image per row settled."""
    store = make_store("rewrite")
    rng = random.Random(12)
    stats = store.wal.stats
    keys = [row.row_key for row in store.insert_many(
        [random_row(rng, i) for i in range(1, 121)], now=0.0)]
    pages = {store.page_of(key) for key in keys}
    assert stats.appended_by_type == {"DELTA": len(pages)}
    assert len(pages) == 4 and stats.appended == 4
    inserted = dict(stats.appended_by_type)
    chunks = store.degrade_many([(keys, "location", SCHEMES["location"], 1),
                                 (keys[:40], "salary", SCHEMES["salary"], 1)], now=1.0)
    assert len(chunks) == 2
    wave = {kind: count - inserted.get(kind, 0)
            for kind, count in stats.appended_by_type.items() if count != inserted.get(kind)}
    assert wave == {"SCRUB": 1}
    assert stats.scrubbed_records == len(keys) == 120
    assert stats.appended == 4 + 1


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
    """Log-amplification guard: 1,000 rows take one step of one column, and
    the log gets the scrub's audit record alone."""
    store = make_store("rewrite")
    rng = random.Random(9)
    rows = [random_row(rng, i) for i in range(1, 1001)]
    keys = [store.insert(row, now=0.0) for row in rows]
    appended = store.wal.stats.appended
    store.degrade_many([(keys, "location", SCHEMES["location"], 2)], now=3600.0)
    wave = store.wal.records()[appended:]
    assert [record.record_type for record in wave] == [LogRecordType.SCRUB]
    for record in wave:
        image = record.encode()
        assert record.record_type is not LogRecordType.DELTA     # no row image
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


def test_a_wave_of_many_chunks_is_recovered_from_its_pages_alone():
    """A wave of three chunks logs no record of its steps; recovery from the
    log finds every row at its step's level on the pages, writes none of
    the (scrubbed) insert images back, and every row's value stays degraded."""
    from repro.txn.recovery import RecoveryManager

    store = make_store("rewrite")
    rng = random.Random(2)
    keys = [store.insert({**random_row(rng, i), "location": ADDRESSES[0]}, now=0.0)
            for i in range(1, 7)]
    chunks = store.degrade_many([(keys[:2], "location", SCHEMES["location"], 1),
                                 (keys[2:4], "location", SCHEMES["location"], 2),
                                 (keys[4:], "salary", SCHEMES["salary"], 1)], now=10.0)
    assert len(chunks) == 3
    assert [r.record_type for r in store.wal] == [LogRecordType.DELTA] * 6 + [LogRecordType.SCRUB]
    before = {key: store.read(key) for key in keys}
    store._locations.clear()
    report = RecoveryManager(store.wal, {"patient": store}).recover()
    assert (report.redone_inserts, report.redone_updates) == (0, 0)
    assert {key: store.read(key) for key in keys} == before
