"""The row encoder (``storage/kernels.py``, compiled per table shape and
strategy) is the record codec, byte for byte, and the checks it replaced.

* property: a row stored by ``TableStore.insert_many`` — given as a value
  row or as an INSERT's parameters — is :func:`encode_stored` of its row
  key, insertion time, levels and coerced values (degradable fields
  encrypted under ``crypto``), for every column type, NULL, bools, big ints
  and non-ASCII text; its coerced values are what it hands the fan-out, and
  :meth:`TableStore.image` of the row read back is the stored record;
* a bad row — an unsupported parameter type, a NULL primary key, an
  uncoercible value, a wrong arity — raises the class and message the
  stand-alone checks raise and inserts nothing.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParameterError, SchemaError
from repro.core.schema import Column, TableSchema
from repro.core.values import NULL, is_missing
from repro.query.parameters import checked_parameters, count_placeholders, insert_sources
from repro.query.parser import parse
from repro.storage.buffer import BufferPool
from repro.storage.crypto import KeyStore
from repro.storage.degradable_store import TableStore
from repro.storage.pager import MemoryPager
from repro.storage.serialization import encode_record, encode_value
from repro.storage.wal import WriteAheadLog

from .test_record_prefix import encode_stored

SCHEMA = TableSchema("t", [
    Column("id", "INT", primary_key=True),
    Column("n", "INT"),
    Column("x", "FLOAT"),
    Column("name", "TEXT"),
    Column("ok", "BOOL"),
    Column("at", "TIMESTAMP"),
    Column("place", "TEXT", degradable=True, domain="location"),
    Column("pay", "INT", degradable=True, domain="salary"),
    Column("tag", "TEXT", nullable=False),
])
SEED = b"encoder"

#: Per column, values its coercion accepts — exact types, the other
#: parameter types it converts, NULL.
INTS = st.integers(-2**63, 2**63 - 1)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
VALUES = {
    "id": INTS | st.booleans() | st.integers(-10**6, 10**6).map(float),
    "n": st.none() | INTS | st.booleans(),
    "x": st.none() | st.floats(allow_nan=False) | st.integers(-10**12, 10**12),
    "name": st.none() | TEXT | st.integers() | st.floats(allow_nan=False),
    "ok": st.none() | st.booleans() | st.integers() | st.sampled_from(["yes", "f", "1"]),
    "at": st.none() | st.floats(allow_nan=False) | st.integers(-10**9, 10**9),
    "place": st.none() | TEXT,
    "pay": st.none() | INTS,
    "tag": TEXT,
}
ROWS = st.lists(st.fixed_dictionaries(VALUES).map(
    lambda row: tuple(row[column.name] for column in SCHEMA.columns)), min_size=1, max_size=6)


def make_store(strategy):
    return TableStore(SCHEMA, BufferPool(MemoryPager(page_size=4096), capacity=8),
                      WriteAheadLog(), strategy=strategy,
                      keystore=KeyStore(deterministic_seed=SEED))


def expected_records(strategy, rows, first, now):
    """What the record codec makes of ``rows``: coerced, keyed from ``first``,
    every level 0; under crypto each present degradable value encrypted by a
    twin key store making the same calls in the same order."""
    twin = KeyStore(deterministic_seed=SEED)
    records = []
    for key, row in enumerate(rows, first):
        values = list(SCHEMA.coerce_row(row))
        for position, column in enumerate(SCHEMA.columns):
            if strategy == "crypto" and column.degradable and not is_missing(values[position]):
                values[position] = twin.encrypt(("t", key, column.name, 0),
                                                encode_value(values[position]))
        records.append(encode_stored(key, now, (0, 0), values))
    return records


def stored_records(store, keys):
    return [store.heap.read(store._locations[key]) for key in keys]


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@settings(max_examples=60)
@given(rows=ROWS, now=st.integers(0, 10**6) | st.floats(0, 1e9))
def test_value_rows_encode_as_the_record_codec(strategy, rows, now):
    store = make_store(strategy)
    stored = store.insert_many(rows, now)
    keys = list(stored.keys)
    assert stored_records(store, keys) == expected_records(strategy, rows, 1, now)
    coerced = [SCHEMA.coerce_row(row) for row in rows]
    assert [tuple(row.values.values()) for row in stored] == coerced
    if strategy == "rewrite":
        assert [store.image(store.read(key)) for key in keys] == stored_records(store, keys)


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@settings(max_examples=40)
@given(rows=ROWS)
def test_statement_parameters_encode_as_the_record_codec(strategy, rows):
    """An INSERT naming its columns out of order, one of them a literal:
    each parameter sequence lands where its values belong."""
    statement = parse("INSERT INTO t (tag, id, n, x, name, ok, at, place, pay) "
                      "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?), ('lit', ?, 7, ?, ?, ?, ?, ?, ?)")
    sources = insert_sources(statement, SCHEMA, count_placeholders(statement))
    params = [(row[8], *row[:8], *row[:1], *row[2:8]) for row in rows]
    store = make_store(strategy)
    stored = store.insert_many(params, 5.0, sources=sources)
    expected_rows = [record for row in rows for record in (row, (*row[:1], 7, *row[2:8], "lit"))]
    assert stored_records(store, stored.keys) == expected_records(strategy, expected_rows, 1, 5.0)


def test_a_value_out_of_the_int_range_fails_as_the_codec_does():
    store = make_store("rewrite")
    row = (1, 2**63, 0.0, "a", True, 0.0, None, None, "t")
    with pytest.raises(struct.error) as codec:
        encode_record(SCHEMA.coerce_row(row))
    with pytest.raises(struct.error) as encoder:
        store.insert_many([row], 0.0)
    assert str(encoder.value) == str(codec.value)
    assert store.row_count == 0


# -- error parity ----------------------------------------------------------------

GOOD = (1, 2, 1.5, "n", True, 3.0, None, 2500, "t")
INSERT = parse("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)")


def reference_error(row, as_params):
    """What the stand-alone checks raise for ``row``: the parameter count
    and type rule (a statement's parameters), then column coercion."""
    try:
        if as_params:
            checked_parameters(row, 9)
        SCHEMA.coerce_row(row)
    except (ParameterError, SchemaError) as error:
        return error
    raise AssertionError(f"{row!r} is not a bad row")


BAD_ROWS = [
    pytest.param((None, 2, 1.5, "n", True, 3.0, None, 2500, "t"), id="null-primary-key"),
    pytest.param((1, 2, 1.5, "n", True, 3.0, None, 2500, None), id="null-not-null"),
    pytest.param((1, "plenty", 1.5, "n", True, 3.0, None, 2500, "t"), id="uncoercible"),
    pytest.param((1, 2.5, 1.5, "n", True, 3.0, None, 2500, "t"), id="non-integral"),
    pytest.param((1, 2, 1.5, "n", "maybe", 3.0, None, 2500, "t"), id="not-a-bool"),
    pytest.param((1, 2, 1.5, "n"), id="wrong-arity"),
]
#: What only a statement's parameters can get wrong.
BAD_PARAMETERS = [
    pytest.param((1, 2, 1.5, b"raw", True, 3.0, None, 2500, "t"), id="unsupported-type"),
    pytest.param("abc", id="bare-string"),
]


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@pytest.mark.parametrize("as_params, bad", [
    *[pytest.param(True, *case.values, id=f"params-{case.id}") for case in BAD_ROWS + BAD_PARAMETERS],
    *[pytest.param(False, *case.values, id=f"row-{case.id}") for case in BAD_ROWS]])
def test_a_bad_row_fails_as_before_and_inserts_nothing(strategy, as_params, bad):
    expected = reference_error(bad, as_params)
    store = make_store(strategy)
    sources = insert_sources(INSERT, SCHEMA, 9) if as_params else None
    appended = store.wal.stats.appended
    with pytest.raises(type(expected)) as raised:
        store.insert_many([GOOD, bad, GOOD], 1.0, sources=sources)
    assert str(raised.value) == str(expected)
    assert (store.row_count, store.heap.page_count, store.wal.stats.appended) == (0, 0, appended)
    assert list(store.insert_many([GOOD], 1.0, sources=sources).keys) == [1]


def test_a_float_column_takes_what_float_makes_of_a_value():
    store = make_store("rewrite")
    stored = store.insert_many([(1, 2, 10**20, "n", 0, -0.0, None, None, "t")], 0.0)
    assert stored[0].values["x"] == 1e20 and stored[0].values["ok"] is False
    assert math.copysign(1, stored[0].values["at"]) == -1
    assert stored[0].values["place"] is NULL
