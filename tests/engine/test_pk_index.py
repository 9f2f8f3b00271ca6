"""The implicit primary-key index.

Every table whose schema declares a ``PRIMARY KEY`` gets a hash index on that
column, derived from the schema when the table is attached and never written
to the catalog record.  It is an ordinary entry of ``info.indexes``, so these
tests check two things: point statements really go through it (and see
exactly the rows a sequential scan would), and every path that changes the
heap keeps it in step.
"""

import pytest

from repro import InstantDB
from repro.engine.catalog_io import latest_catalog_snapshot
from repro.query.planner import ParamMarker
from repro.workloads import person_table_sql

from ..conftest import build_engine

PARIS = "1 Main Street, Paris"
PURPOSES = [None, "service", "statistics"]


def pk_index(db, table="person"):
    return db.catalog.table(table).indexes[f"pk_{table}"].index


def assert_pk_consistent(db, table="person"):
    """Index postings == (key, row key) of every live heap row, no more."""
    index = pk_index(db, table)
    key_column = db.catalog.table(table).schema.primary_key
    postings = sorted((key, row_key) for key in index.keys()
                      for row_key in index.search(key))
    heap = sorted((row.values[key_column], row.row_key)
                  for row in db.table_store(table).scan())
    assert postings == heap
    assert len(index) == len(heap)


def insert_person(db, row_id, txn=None, salary=2500):
    db.execute("INSERT INTO person (id, user_id, name, location, salary, "
               "activity) VALUES (?, ?, ?, ?, ?, ?)", txn=txn,
               params=(row_id, row_id * 10, f"user{row_id}", PARIS, salary,
                       "work"))


@pytest.fixture
def mixed_db(populated_db):
    """40 rows degraded one step (location and salary) plus 5 accurate ones:
    every purpose sees a different subset."""
    db = populated_db
    db.advance_time(hours=3)
    for row_id in range(41, 46):
        insert_person(db, row_id)
    return db


def explain(db, sql, purpose=None, params=None):
    return [row[0] for row in db.execute(f"EXPLAIN {sql}", purpose=purpose,
                                         params=params).rows]


class TestAccessPath:
    @pytest.mark.parametrize("purpose", PURPOSES)
    @pytest.mark.parametrize("sql", [
        "SELECT * FROM person WHERE id = ?",
        "UPDATE person SET activity = 'seen' WHERE id = ?",
        "DELETE FROM person WHERE id = ?",
    ])
    def test_point_statements_use_the_pk_index(self, mixed_db, sql, purpose):
        lines = explain(mixed_db, sql, purpose, params=(7,))
        assert "IndexScan(pk_person id=7)" in lines[0]
        assert any(line.strip().startswith("IndexScan(pk_person id=7)")
                   for line in lines[1:])
        assert not any("SeqScan" in line for line in lines)

    def test_placeholder_template_plans_index_eq(self, mixed_db):
        template = mixed_db.prepare("SELECT * FROM person WHERE id = ?").statement
        access = mixed_db.planner.plan_physical(template, None).base.access
        assert access.kind == "index_eq"
        assert access.index.name == "pk_person"
        assert access.key == ParamMarker(0)

    def test_explain_dml_renders_the_match_pipeline_without_running_it(
            self, mixed_db):
        before = mixed_db.row_count("person")
        lines = explain(mixed_db, "ANALYZE DELETE FROM person "
                                  "WHERE id = 41 AND activity = 'work'")
        assert lines[0].startswith("Delete via IndexScan(pk_person id=41)")
        # the same match pipeline a SELECT would run: the rest of the WHERE
        # clause is evaluated inside the scan
        assert lines[1].startswith("IndexScan(pk_person id=41)")
        assert "filter (activity = 'work')" in lines[0] and \
            "filter (activity = 'work')" in lines[1]
        assert len(lines) == 2
        assert "rows=" not in "".join(lines)
        assert mixed_db.row_count("person") == before
        assert explain(mixed_db, "UPDATE person SET activity = 'x'")[0] == \
            "Update via SeqScan on person as person accuracy[location@0, salary@0]"

    @pytest.mark.parametrize("purpose", PURPOSES)
    def test_point_read_sees_what_a_seq_scan_sees(self, mixed_db, purpose):
        scanned = mixed_db.execute("SELECT * FROM person", purpose=purpose)
        id_at = scanned.columns.index("id")
        by_id = {}
        for row in scanned.rows:
            by_id.setdefault(row[id_at], []).append(row)
        # The purposes must actually differ in what they exclude.
        assert len(by_id) == (5 if purpose is None else 45)
        for row_id in range(1, 47):
            point = mixed_db.execute("SELECT * FROM person WHERE id = ?",
                                     purpose=purpose, params=(row_id,))
            assert point.rows == by_id.get(row_id, [])

    @pytest.mark.parametrize("purpose", PURPOSES)
    def test_dml_matches_what_a_seq_scan_matches(self, mixed_db, purpose):
        visible = {row[0] for row in mixed_db.execute(
            "SELECT id FROM person", purpose=purpose).rows}
        for row_id in (3, 43, 99):
            expected = int(row_id in visible)
            assert mixed_db.execute(
                "UPDATE person SET activity = 'seen' WHERE id = ?",
                purpose=purpose, params=(row_id,)) == expected
            assert mixed_db.execute(
                "DELETE FROM person WHERE id = ?", purpose=purpose,
                params=(row_id,)) == expected
        assert_pk_consistent(mixed_db)

    def test_duplicate_keys_stay_legal(self, empty_db):
        insert_person(empty_db, 1)
        insert_person(empty_db, 1, salary=1800)
        rows = empty_db.execute("SELECT salary FROM person WHERE id = 1").rows
        assert sorted(rows) == [(1800,), (2500,)]
        assert_pk_consistent(empty_db)


class TestMaintenance:
    def test_insert_update_delete(self, empty_db):
        for row_id in range(1, 6):
            insert_person(empty_db, row_id)
        empty_db.execute("UPDATE person SET id = 50 WHERE id = 5")
        empty_db.execute("DELETE FROM person WHERE id = 2")
        assert_pk_consistent(empty_db)
        assert empty_db.execute("SELECT id FROM person WHERE id = 5").rows == []
        assert empty_db.execute("SELECT id FROM person WHERE id = 50").rows == [(50,)]

    def test_abort_undoes_the_insert(self, empty_db):
        insert_person(empty_db, 1)
        txn = empty_db.begin()
        insert_person(empty_db, 2, txn=txn)
        assert len(pk_index(empty_db)) == 2
        empty_db.rollback(txn)
        assert_pk_consistent(empty_db)
        assert empty_db.execute("SELECT id FROM person WHERE id = 2").rows == []

    def test_policy_removals(self, mixed_db):
        # Past every deadline: the 45 rows are fully suppressed and removed
        # by the waves (``remove_many`` inside the batch transaction).
        mixed_db.advance_time(days=400)
        assert mixed_db.stats.rows_removed_by_policy == 45
        assert len(pk_index(mixed_db)) == 0
        assert_pk_consistent(mixed_db)

    def test_drop_and_recreate_same_name(self, empty_db):
        insert_person(empty_db, 1)
        stale = pk_index(empty_db)
        empty_db.execute("DROP TABLE person")
        empty_db.execute(person_table_sql(policy_name="location_lcp",
                                          salary_policy="salary_lcp"))
        assert pk_index(empty_db) is not stale
        assert len(pk_index(empty_db)) == 0
        insert_person(empty_db, 1, salary=1800)
        assert empty_db.execute(
            "SELECT salary FROM person WHERE id = 1").rows == [(1800,)]
        assert_pk_consistent(empty_db)

    def test_user_index_on_the_pk_column(self, empty_db):
        for row_id in range(1, 6):
            insert_person(empty_db, row_id)
        empty_db.execute("CREATE INDEX idx_id ON person (id) USING btree")
        insert_person(empty_db, 6)
        empty_db.execute("DELETE FROM person WHERE id = 3")
        assert_pk_consistent(empty_db)
        user = empty_db.catalog.table("person").indexes["idx_id"].index
        assert sorted(user.keys()) == [1, 2, 4, 5, 6]
        assert "IndexRangeScan(idx_id" in explain(
            empty_db, "SELECT name FROM person WHERE id > 4")[0]
        assert empty_db.execute(
            "SELECT id FROM person WHERE id = 6").rows == [(6,)]

    def test_cold_reopen_rebuilds_it_from_a_catalog_that_never_held_it(
            self, tmp_path):
        db = build_engine(data_dir=str(tmp_path))
        db.execute("CREATE INDEX idx_user ON person (user_id) USING hash")
        for row_id in range(1, 9):
            insert_person(db, row_id)
        db.execute("DELETE FROM person WHERE id = 4")
        db.advance_time(hours=3)          # a wave rewrites every row
        # The persisted catalog names the declared index only — byte for byte
        # what a directory written before the implicit index existed holds.
        persisted = latest_catalog_snapshot(db.wal)["tables"][0]["indexes"]
        assert [entry["name"] for entry in persisted] == ["idx_user"]
        db.daemon.pause()                 # abandon without close()

        reopened = InstantDB(data_dir=str(tmp_path))
        reopened.recover()
        assert sorted(reopened.catalog.table("person").indexes) == \
            ["idx_user", "pk_person"]
        assert_pk_consistent(reopened)
        assert len(pk_index(reopened)) == 7
        reopened.execute("DECLARE PURPOSE service SET ACCURACY LEVEL city "
                         "FOR person.location")
        assert "IndexScan(pk_person id=5)" in explain(
            reopened, "SELECT name FROM person WHERE id = 5", "service")[0]
        assert reopened.execute("SELECT name FROM person WHERE id = 5",
                                purpose="service").rows == [("user5",)]
        reopened.checkpoint()
        persisted = latest_catalog_snapshot(reopened.wal)["tables"][0]["indexes"]
        assert [entry["name"] for entry in persisted] == ["idx_user"]
