"""A stored value takes the narrowest form that holds it (WAL format 12).

* The codec: an INT in ``[-2**31, 2**31)`` is a tag and 4 bytes, a wider one
  a tag and 8; a TEXT or BYTES payload under 256 bytes has a 1-byte length, a
  longer one a 4-byte length — at each edge, and for UTF-8 strings whose byte
  length crosses 255 while their character count does not.
* The kernels at the same edges: the row encoder makes the codec's bytes,
  the scan reader decodes them (under the wide prefix and field by field),
  pushed comparisons and a wave's splicer read and hop over them, and every
  answer is the reference model's.
* A stable INT column holding one ``2**40`` among small values: its record
  leaves the wide prefix, and reads, pushed ranges and waves still answer as
  the model does.
* The exact stored size of one row of each scenario table: a format change
  that grows records fails here first.
* The forensic scanner sees the 4-byte form: an expired salary left in it on
  a heap page, or in a ``DELTA`` image, is reported.
"""

import random
import struct

import pytest

import repro
from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.core.errors import StorageError
from repro.privacy.forensic import scan_engine
from repro.scenarios import InclusionGenerator, InclusionScenario
from repro.scenarios.reference import ReferenceModel
from repro.storage.page import _HEADER
from repro.storage.serialization import decode_record, decode_value, encode_record, encode_value
from repro.storage.wal import LogRecordType, encode_delta

from .test_record_prefix import encode_stored, same_answers

#: Each INT edge and the bytes its field takes.
INTS = {-2**31 - 1: 9, -2**31: 5, -1: 5, 0: 5, 2**31 - 1: 5, 2**31: 9,
        2**40: 9, -2**63: 9, 2**63 - 1: 9}
#: TEXTs around the 255-byte edge: ASCII, then two-byte and three-byte UTF-8
#: whose character counts stay under 255 on both sides of it.
TEXTS = ["", "a" * 255, "a" * 256, "é" * 127 + "a", "é" * 128, "€" * 85, "€" * 86]


def text_size(text: str) -> int:
    length = len(text.encode("utf-8"))
    return length + (2 if length < 256 else 5)


@pytest.mark.parametrize("value", sorted(INTS))
def test_an_int_takes_four_bytes_when_it_fits(value):
    field = encode_value(value)
    assert len(field) == INTS[value]
    assert decode_value(field) == (value, INTS[value])
    assert decode_record(encode_record([value, value])) == (value, value)
    with pytest.raises(StorageError, match="short INT payload"):
        decode_value(field[:-1])


@pytest.mark.parametrize("text", TEXTS)
def test_a_text_under_256_bytes_has_a_one_byte_length(text):
    field = encode_value(text)
    assert len(field) == text_size(text)
    assert decode_value(field) == (text, len(field))
    payload = text.encode("utf-8")
    assert decode_value(encode_value(payload)) == (payload, len(field))
    with pytest.raises(StorageError, match="short length prefix"):
        decode_value(field[:1])
    if payload:
        with pytest.raises(StorageError, match="short string payload"):
            decode_value(field[:-1])


def test_the_utf8_edge_is_the_byte_length():
    """127 two-byte characters and one ASCII letter make 255 bytes; 128 two-byte
    characters make 256 in 128 characters: the length byte counts bytes."""
    assert [len(encode_value(text)) for text in ("é" * 127 + "a", "é" * 128)] == [257, 261]


def edge_db():
    """A table with a stable INT and TEXT stored first, a degradable salary,
    and a purpose that sees the salary's first step; and the model."""
    db = InstantDB()
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(salary, states=[0, 1, 2], transitions=["1 h", "1 d"],
                                    name="salary_lcp"))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT, n INT NOT NULL, "
               "pay INT DEGRADABLE DOMAIN salary POLICY salary_lcp, tail TEXT)")
    db.execute("DECLARE PURPOSE coarse SET ACCURACY LEVEL 1 FOR t.pay")
    return db, ReferenceModel(db.catalog)


def test_the_kernels_read_write_and_splice_the_edges():
    db, model = edge_db()
    rng = random.Random(51)
    ints, texts = sorted(INTS), TEXTS
    rows = [(key, texts[key % len(texts)], ints[key % len(ints)],
             rng.choice(ints) if key % 3 else 2500 + key, texts[(key * 5) % len(texts)])
            for key in range(1, 64)]
    for target in (db, model):
        target.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    store = db.table_store("t")
    # The row encoder's record is the codec's, field by field (stable INTs first).
    for key, (row_id, note, n, pay, tail) in zip(sorted(store._locations), rows):
        assert store.heap.read(store._locations[key]) == encode_stored(
            key, 0.0, (0,), [row_id, n, note, pay, tail])
    for step in (0, 2, 30):
        db.advance_time(hours=step)
        model.advance(step * 3600.0)
        for purpose in (None, "coarse"):
            same_answers(db, model, "SELECT * FROM t", purpose=purpose)
            same_answers(db, model, "SELECT id, tail FROM t WHERE note = ?", (texts[4],), purpose)
        for bound in ints:
            for operator in (">=", "<", "="):
                same_answers(db, model, f"SELECT id, pay FROM t WHERE n {operator} ?", (bound,))
    store.heap.check()


def test_one_wide_int_among_small_ones():
    """``n`` holds 2**40 in one row: that record is four bytes longer and is
    walked field by field; the others match the wide prefix."""
    db, model = edge_db()
    rows = [(key, f"note-{key}", 2**40 if key == 17 else key * 3, 2500 + key, "x")
            for key in range(1, 41)]
    for target in (db, model):
        target.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    store = db.table_store("t")
    wide, wide_tags = store._wide[:2]
    matched = {}
    for key, record_id in store._locations.items():
        record = store.heap.read(record_id)
        matched[store.read(key).values["id"]] = \
            wide.unpack_from(record)[store._prefix.tags_at::2] == wide_tags
    assert [row_id for row_id, hit in matched.items() if not hit] == [17]
    for hours in (0, 2, 30):
        db.advance_time(hours=hours)
        model.advance(hours * 3600.0)
        for purpose in (None, "coarse"):
            same_answers(db, model, "SELECT * FROM t", purpose=purpose)
        for bound in (0, 50, 2**31, 2**40, 2**40 + 1):
            for operator in (">=", "<", "=", "!="):
                same_answers(db, model, f"SELECT id, n, pay FROM t WHERE n {operator} ?",
                             (bound,), purpose="coarse")


#: One row of each scenario table (seed 7, its lowest row key) as stored:
#: 430 bytes in all when every INT took 9 bytes and every TEXT length 4.
SCENARIO_RECORD_BYTES = {"approvals": 55, "companies": 61, "employee_records": 70,
                         "job_applications": 68, "users": 83}


def test_the_stored_size_of_each_scenario_table_is_pinned():
    db = InstantDB()
    scenario = InclusionScenario(10)
    scenario.install(db)
    InclusionGenerator(scenario, seed=7).load(repro.connect(engine=db))
    sizes = {}
    for info in db.catalog.tables():
        store = db.table_store(info.name)
        sizes[info.name] = len(store.heap.read(store._locations[min(store._locations)]))
    assert sizes == SCENARIO_RECORD_BYTES


@pytest.mark.parametrize("seed", [3, 11])
def test_an_expired_salary_left_in_its_four_byte_form_is_found(seed):
    """Salaries degrade past their first step; then one expired salary is
    planted, tagged and in 4 bytes, in a heap page's free space and in a
    ``DELTA`` image — places the 8-byte pattern alone would not match."""
    db, _model = edge_db()
    rng = random.Random(seed)
    salaries = [1_000_000 + 17 * key + rng.randrange(17) for key in range(1, 31)]
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                   [(key, "n", key, salary, "") for key, salary in enumerate(salaries, 1)])
    db.advance_time(hours=2)
    assert db.level_histogram("t", "pay") == {1: len(salaries)}
    assert scan_engine(db, salaries, table="t").clean
    victim = rng.choice(salaries)
    field = encode_value(victim)
    assert len(field) == 5 and struct.pack("<q", victim) not in field

    store = db.table_store("t")
    page_id = store.heap.page_ids()[0]
    frame = store.heap.frame(page_id)
    _slots, free_offset = _HEADER.unpack_from(frame, 0)
    frame[free_offset - len(field):free_offset] = field       # an unzeroed hole
    report = scan_engine(db, salaries, table="t")
    assert report.residual_values == [victim]
    assert [finding.channel for finding in report.findings] == ["heap"]
    frame[free_offset - len(field):free_offset] = bytes(len(field))
    assert scan_engine(db, salaries, table="t").clean

    key = min(store._locations)
    image = encode_stored(key, 0.0, (0,), [1, 1, "n", victim, ""])
    after, index = encode_delta([(key, 1, image)])
    db.wal.append(LogRecordType.DELTA, 0, table="t", row_key=key, after=after, images=index)
    report = scan_engine(db, salaries, table="t")
    assert report.residual_values == [victim]
    assert [finding.channel for finding in report.findings] == ["wal"]
