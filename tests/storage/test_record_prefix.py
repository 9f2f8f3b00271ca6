"""The stored record's prefix (``storage/serialization.py``)::

    count:H · level:B × L · (tag, key:q) · (tag, inserted_at:d) · values…

* one layout, every reader — over 0–3 degradable columns, random rows and
  random degradation waves, the levels of each row as read by the heap's level
  reader, the prefix decoded field by field (``decode_stored``), the scan
  kernel (lazy and drained, plain and under every cap), the wave kernel (a
  step to the stored level is no step, one below it is refused), the
  ``StoredRow`` reader and recovery's ``rebuild_locations`` all agree with the
  levels the waves set;
* the size — each image is ``2 + L + 9 + 9`` bytes plus its values'
  encodings: one byte a level;
* the bound — a domain of more levels than a byte holds is refused when a
  column is defined over it, and one of as many degrades as any other;
* the order — the values follow the prefix stable INT and FLOAT columns
  first (``serialization.stored_order``), and no answer shows it: over random
  declared orders, INSERT with and without a column list, ``SELECT *``,
  pushed filters, an UPDATE, a wave and a crash answer as the reference
  model, a ``StoredRow`` is keyed by name, the wide prefix covers every
  stable INT and FLOAT, and a record with a NULL in one is walked.
"""

import struct
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_diagnosis_tree, build_location_tree, build_salary_ranges
from repro.core.errors import PolicyError, SchemaError, StorageError
from repro.core.generalization import NumericRangeGeneralization
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, ValueType
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import TableStore
from repro.storage.page import record_span
from repro.storage.pager import MemoryPager
from repro.storage.serialization import MAX_LEVEL, decode_value, encode_value
from repro.scenarios.reference import ReferenceModel
from repro.storage.wal import WriteAheadLog


def encode_stored(row_key, inserted_at, levels, values) -> bytes:
    """A stored record spelled out from the layout, field by field: the
    field count, one byte a level, the tagged key (always in the 8-byte
    form) and time, each value in its narrowest form."""
    return b"".join((struct.pack(f"<H{len(levels)}B", 2 + len(levels) + len(values), *levels),
                     struct.pack("<Bq", 1, row_key), encode_value(float(inserted_at)),
                     *map(encode_value, values)))


def decode_stored(data, levels: int):
    """``(row key, inserted_at, levels, values)`` of a stored record of
    ``levels`` levels, decoded field by field: what the readers must say."""
    count, *stored = struct.unpack_from(f"<H{levels}B", data)
    row_key, offset = decode_value(data, 2 + levels)
    inserted_at, offset = decode_value(data, offset)
    values = []
    for _ in range(count - 2 - levels):
        value, offset = decode_value(data, offset)
        values.append(value)
    if offset != len(data):
        raise StorageError("trailing bytes after record payload")
    return row_key, inserted_at, tuple(stored), tuple(values)


#: The degradable columns a table may take, in order: name, type, domain.
DEGRADABLE = [("location", "TEXT", build_location_tree()),
              ("salary", "INT", build_salary_ranges()),
              ("diagnosis", "TEXT", build_diagnosis_tree())]


def record_order(schema: TableSchema):
    """The column names in the order a record stores their values: the
    stable INT and FLOAT columns first, then the others, each as declared."""
    first = [column.name for column in schema.columns
             if not column.degradable and column.value_type in (ValueType.INT, ValueType.FLOAT)]
    return first + [column.name for column in schema.columns if column.name not in first]


def schema_of(count: int) -> TableSchema:
    """A table with ``count`` degradable columns, each followed by a stable FLOAT."""
    columns = [Column("id", "INT", primary_key=True), Column("note", "TEXT")]
    for name, kind, scheme in DEGRADABLE[:count]:
        columns += [Column(name, kind, degradable=True, domain=scheme.name),
                    Column(f"after_{name}", "FLOAT")]
    return TableSchema("t", columns)


def accurate(scheme):
    if scheme.name == "salary":
        return st.integers(0, 10**6)
    return st.sampled_from(scheme.leaves())


@st.composite
def tables(draw):
    """A degradable column count, a strategy, rows, and waves of steps:
    per wave, per column at most one ``(rows drawn, to level)``."""
    count = draw(st.integers(0, 3))
    rows = []
    for row_id in range(draw(st.integers(1, 40))):
        row = {"id": row_id, "note": draw(st.text(max_size=30))}
        for name, _kind, scheme in DEGRADABLE[:count]:
            row[name] = draw(st.one_of(st.just(NULL), accurate(scheme)))
            row[f"after_{name}"] = draw(st.one_of(st.just(NULL), st.floats(allow_nan=False)))
        rows.append(row)
    waves = [[(column, draw(st.integers(0, DEGRADABLE[column][2].max_level)),
               draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows))))
              for column in draw(st.sets(st.integers(0, count - 1)))] if count else []
             for _wave in range(draw(st.integers(0, 4)))]
    return count, draw(st.sampled_from(["rewrite", "crypto"])), rows, waves


def levels_everywhere(store: TableStore, count: int):
    """Row key → levels, as each reader of the record prefix reads them."""
    names = [name for name, _kind, _scheme in DEGRADABLE[:count]]
    readers = defaultdict(dict)
    for key, record_id in store._locations.items():
        data = store.heap.frame(record_id.page_id)
        start, end = record_span(data, record_id.slot)
        row_key, _inserted_at, levels, values = decode_stored(bytes(data[start:end]), count)
        assert row_key == key
        readers["decode_stored"][key] = levels
        if count:
            readers["heap level reader"][key] = store.heap.levels(data, start)
            readers["heap level summary"][key] = \
                store.heap._slot_levels[record_id.page_id][record_id.slot]
        # the image's size: the prefix, one byte a level, then each value
        assert end - start == 2 + count + 9 + 9 + sum(map(len, map(encode_value, values)))
        row = store.read(key)
        readers["StoredRow"][key] = tuple(row.levels[name] for name in names)
        if store.strategy == "rewrite":
            assert values == tuple(map(row.values.__getitem__, record_order(store.schema)))
    for pace, drain in (("lazy", bool), ("drained", lambda: True)):
        readers[f"scan kernel, {pace}"] = {
            row.row_key: tuple(row.levels[name] for name in names)
            for run in store.runs(drain=drain) for row in run}
        for at, (name, _kind, scheme) in enumerate(DEGRADABLE[:count]):
            for cap in range(scheme.max_level + 1):
                kept = {row.row_key for run in store.runs(None, [(name, cap)], drain=drain)
                        for row in run}
                assert kept == {key for key, levels in readers["StoredRow"].items()
                                if levels[at] <= cap}, (pace, name, cap)
    return readers


@given(table=tables())
@settings(max_examples=60, deadline=None)
def test_every_reader_reads_the_levels_the_waves_set(table):
    count, strategy, rows, waves = table
    store = TableStore(schema_of(count), BufferPool(MemoryPager(page_size=512), capacity=8),
                       WriteAheadLog(), strategy=strategy)
    keys = list(store.insert_many(rows, now=0.0).keys)
    model = {key: [0] * count for key in keys}
    for now, wave in enumerate(waves, 1):
        steps = []
        for column, to_level, drawn in wave:
            moved = sorted({keys[index] for index in drawn
                            if model[keys[index]][column] <= to_level})
            steps.append((moved, DEGRADABLE[column][0], DEGRADABLE[column][2], to_level))
            for key in moved:
                model[key][column] = to_level
        store.degrade_many(steps, now=float(now))
    expected = {key: tuple(levels) for key, levels in model.items()}
    for reader, levels in levels_everywhere(store, count).items():
        assert levels == expected, reader
    # recovery's rebuild of the address map reads the prefix too
    locations = dict(store._locations)
    store._locations.clear()
    store.rebuild_locations()
    assert store._locations == locations
    assert {key: tuple(store.read(key).levels.values()) for key in keys} == expected
    # the wave kernel: a step to the stored level is no step; one below it is refused
    for at, (name, _kind, scheme) in enumerate(DEGRADABLE[:count]):
        by_level = defaultdict(list)
        for key, levels in expected.items():
            by_level[levels[at]].append(key)
        assert store.degrade_many([(moved, name, scheme, level)
                                   for level, moved in by_level.items()], now=9.0) == []
        for level, moved in by_level.items():
            if level:
                with pytest.raises(PolicyError):
                    store.degrade_many([(moved[:1], name, scheme, level - 1)], now=9.0)
    assert {key: tuple(store.read(key).levels.values()) for key in keys} == expected


def wide_domain(levels: int) -> NumericRangeGeneralization:
    """A range domain of ``levels`` accuracy levels (exact, ranges, suppressed)."""
    return NumericRangeGeneralization(f"wide{levels}", [1] * (levels - 2))


def test_a_domain_of_more_levels_than_a_byte_holds_is_refused_at_ddl():
    db = InstantDB()
    scheme = db.register_domain(wide_domain(MAX_LEVEL + 2))
    assert scheme.max_level == 256
    db.register_policy(AttributeLCP(scheme, states=[0, 1], transitions=["1 h"],
                                    name="wide_lcp"))
    with pytest.raises(SchemaError, match=r"t\.pay: domain 'wide257' has 257 accuracy levels"):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, pay INT "
                   "DEGRADABLE DOMAIN wide257 POLICY wide_lcp)")
    assert db.tables() == []


def test_a_domain_of_as_many_levels_as_a_byte_holds_degrades_to_its_end():
    db = InstantDB()
    scheme = db.register_domain(wide_domain(MAX_LEVEL + 1))
    db.register_policy(AttributeLCP(scheme, states=[0, 254, 255],
                                    transitions=["1 h", "1 d"], name="wide_lcp"))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, pay INT "
               "DEGRADABLE DOMAIN wide256 POLICY wide_lcp)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(1, 2500), (2, 3100)])
    db.advance_time(hours=2)
    assert db.level_histogram("t", "pay") == {254: 2}
    store = db.table_store("t")
    store.degrade_many([(store.row_keys(), "pay", scheme, MAX_LEVEL)], now=db.now())
    assert db.level_histogram("t", "pay") == {MAX_LEVEL: 2}


# -- the physical order is invisible ------------------------------------------

#: Column type → the domain a degradable column of that type degrades in.
KINDS = {"INT": "salary", "FLOAT": "salary", "TEXT": "location"}


def value_of(kind: str, degradable: bool):
    """Values of a column of ``kind``: a degradable one's come from its domain."""
    if kind == "TEXT":
        return st.sampled_from(build_location_tree().leaves()) if degradable \
            else st.text(max_size=12)
    if kind == "INT":
        return st.integers(0 if degradable else -2**40, 10**6 if degradable else 2**40)
    return st.floats(0.0 if degradable else -1e9, 1e6 if degradable else 1e9,
                     allow_nan=False)


@st.composite
def declared_tables(draw):
    """A declared order of ``id`` and stable, nullable and degradable INT,
    FLOAT and TEXT columns: ``(name, kind, role)`` each, and rows for them."""
    columns = [(f"c{index}", kind, role) for index, (kind, role) in enumerate(draw(st.lists(
        st.tuples(st.sampled_from(sorted(KINDS)),
                  st.sampled_from(["stable", "nullable", "degradable"])),
        min_size=1, max_size=7)))]
    columns.insert(draw(st.integers(0, len(columns))), ("id", "INT", "key"))
    rows = []
    for key in range(1, draw(st.integers(1, 30)) + 1):
        row = {}
        for name, kind, role in columns:
            value = value_of(kind, role == "degradable")
            row[name] = key if role == "key" else draw(
                st.one_of(st.none(), value) if role == "nullable" else value)
        rows.append(row)
    return columns, rows


def ddl(columns) -> str:
    spelled = {"key": " PRIMARY KEY", "stable": " NOT NULL", "nullable": ""}
    return "CREATE TABLE t (" + ", ".join(
        f"{name} {kind}" + (spelled[role] if role != "degradable" else
                            f" DEGRADABLE DOMAIN {KINDS[kind]} POLICY {KINDS[kind]}_lcp")
        for name, kind, role in columns) + ")"


def same_answers(db, model, sql, params=(), purpose=None) -> None:
    got = db.execute(sql, params=params, purpose=purpose)
    want = model.execute(sql, params, purpose=purpose)
    assert list(got.columns) == list(want.columns), sql
    assert sorted(got.rows, key=repr) == sorted(want.fetchall(), key=repr), (sql, params)


def check_reads(db, model, columns, rows) -> None:
    """``SELECT *`` under each purpose and a pushed filter on each stable column."""
    for purpose in (None, "exact", "coarse"):
        same_answers(db, model, "SELECT * FROM t", purpose=purpose)
    for name, kind, role in columns:
        present = [row[name] for row in rows if row[name] is not None]
        if role == "degradable" or not present:
            continue
        operator = "=" if kind == "TEXT" else ">="
        same_answers(db, model, f"SELECT * FROM t WHERE {name} {operator} ?",
                     (present[len(present) // 2],), purpose="exact")


def check_store(store, columns) -> None:
    """Every ``StoredRow`` is keyed by name; the wide prefix covers every
    stable INT (in its 4-byte form) and FLOAT column, and a record with a
    NULL or an INT outside the 4-byte range in one is walked."""
    fixed = [name for name, kind, role in columns
             if role != "degradable" and kind in ("INT", "FLOAT")]
    wide, wide_tags, widths, text = store._wide
    covered = len(widths)
    assert covered == len(fixed) and record_order(store.schema)[:covered] == fixed
    kinds = dict((name, kind) for name, kind, _role in columns)
    assert widths == tuple(4 if kinds[name] == "INT" else 8 for name in fixed)
    head = record_order(store.schema)[:covered + text]

    def narrow(value) -> bool:
        return value is not NULL and (type(value) is not int or -2**31 <= value < 2**31) \
            and (type(value) is not str or len(value.encode()) < 256)

    for run in store.runs(drain=lambda: True):
        for row in run:
            assert list(row.values) == [name for name, _kind, _role in columns]
            record_id = store._locations[row.row_key]
            data = store.heap.frame(record_id.page_id)
            start, end = record_span(data, record_id.slot)
            matched = end - start >= wide.size and \
                wide.unpack_from(data, start)[store._prefix.tags_at::2] == wide_tags
            assert matched == all(narrow(row.values[name]) for name in head)


@given(table=declared_tables(), split=st.integers(0, 30), hours=st.sampled_from([0, 2, 30]))
@settings(max_examples=25, deadline=None)
def test_the_physical_order_is_invisible(tmp_path_factory, table, split, hours):
    """Random declared orders: INSERT with and without a column list, ``SELECT
    *``, pushed filters, an UPDATE of a stable column, a wave, a crash and
    ``recover()`` answer as the reference model does (the crypto strategy,
    which keeps no keys across a restart, is the store-level property's)."""
    columns, rows = table
    data_dir = str(tmp_path_factory.mktemp("order"))
    db = InstantDB(data_dir=data_dir)
    for name, scheme in (("salary", build_salary_ranges()), ("location", build_location_tree())):
        db.register_policy(AttributeLCP(db.register_domain(scheme), states=[0, 1, 2],
                                        transitions=["1 h", "1 d"], name=f"{name}_lcp"))
    db.execute(ddl(columns))
    degradable = [name for name, _kind, role in columns if role == "degradable"] or ["id"]
    for purpose, level in (("exact", 0), ("coarse", 1)):
        db.execute(f"DECLARE PURPOSE {purpose} SET ACCURACY LEVEL " + ", ".join(
            f"{level} FOR t.{name}" for name in degradable))
    model = ReferenceModel(db.catalog)
    names = [name for name, _kind, _role in columns]
    whole, listed = rows[:split], rows[split:]
    if whole:
        sql = f"INSERT INTO t VALUES ({', '.join('?' * len(names))})"
        params = [tuple(row[name] for name in names) for row in whole]
        for target in (db, model):
            target.executemany(sql, params)
    # a column list in reverse declared order, leaving the nullable columns out
    named = [name for name, _kind, role in reversed(columns) if role != "nullable"]
    if listed:
        sql = f"INSERT INTO t ({', '.join(named)}) VALUES ({', '.join('?' * len(named))})"
        params = [tuple(row[name] for name in named) for row in listed]
        for target in (db, model):
            target.executemany(sql, params)
        for row in listed:
            row.update((name, None) for name in names if name not in named)
    check_reads(db, model, columns, rows)
    stable = [(name, kind) for name, kind, role in columns if role in ("stable", "nullable")]
    if stable:
        name, kind = stable[0]
        value = {"INT": 7, "FLOAT": 7.5, "TEXT": "seven"}[kind]
        sql, params = f"UPDATE t SET {name} = ? WHERE id <= ?", (value, len(rows) // 2)
        assert db.execute(sql, params=params) == model.execute(sql, params).rowcount
        for row in rows[:len(rows) // 2]:
            row[name] = value
    if hours:
        db.advance_time(hours=hours)
        model.advance(hours * 3600.0)
    check_reads(db, model, columns, rows)
    check_store(db.table_store("t"), columns)
    # a crash, after a checkpoint or not: the engine abandoned, its directory reopened cold
    if split % 2:
        db.checkpoint()
    engine = InstantDB(data_dir=data_dir)
    engine.recover()
    check_reads(engine, model, columns, rows)
    check_store(engine.table_store("t"), columns)
    engine.close()
