"""Basic engine behaviour: DDL, DML, SELECT, purposes, EXPLAIN."""

import inspect

import pytest

from repro import InstantDB
from repro.core.errors import (
    CatalogError,
    ConfigurationError,
    ExecutionError,
    ParseError,
    PolicyError,
)
from repro.query.executor import QueryResult
from repro.scenarios import VARIANT_NAMES

from ..conftest import build_engine


class TestDDL:
    def test_create_table_registers_schema_and_policy(self, empty_db):
        info = empty_db.catalog.table("person")
        assert info.schema.has_column("location")
        assert info.policy is not None
        assert set(info.policy.degradable_columns()) == {"location", "salary"}

    def test_create_table_unknown_domain_rejected(self):
        db = InstantDB()
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (x TEXT DEGRADABLE DOMAIN nowhere POLICY p)")

    def test_create_table_unknown_policy_rejected(self):
        db = InstantDB()
        from repro.core.domains import build_location_tree
        db.register_domain(build_location_tree())
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (x TEXT DEGRADABLE DOMAIN location POLICY ghost)")

    def test_duplicate_table_rejected(self, empty_db):
        with pytest.raises(CatalogError):
            empty_db.execute("CREATE TABLE person (id INT)")

    def test_drop_table(self, empty_db):
        empty_db.execute("INSERT INTO person (id, name, location) "
                         "VALUES (1, 'a', '1 Main Street, Paris')")
        empty_db.execute("DROP TABLE person")
        assert "person" not in empty_db.tables()
        with pytest.raises(CatalogError):
            empty_db.execute("SELECT * FROM person")

    def test_describe_lists_schema_and_policies(self, empty_db):
        text = empty_db.describe()
        assert "person" in text and "location_lcp" in text

    def test_register_policy_inline(self):
        db = InstantDB()
        from repro.core.domains import build_location_tree
        db.register_domain(build_location_tree())
        policy = db.register_policy(domain="location",
                                    transitions=["1 h", "1 d", "1 w", "1 month"])
        assert policy.name == "location_lcp"
        with pytest.raises(ConfigurationError):
            db.register_policy()

    def test_unsupported_statement_type(self, empty_db):
        with pytest.raises(ParseError):
            empty_db.execute("VACUUM person")


class TestInsertAndSelect:
    def test_insert_returns_affected_count(self, empty_db):
        count = empty_db.execute(
            "INSERT INTO person (id, user_id, name, location, salary, activity) VALUES "
            "(1, 10, 'alice', '1 Main Street, Paris', 2500, 'work'), "
            "(2, 11, 'bob', '2 Station Road, Lyon', 3100, 'travel')"
        )
        assert count == 2
        assert empty_db.row_count("person") == 2

    def test_select_star_returns_query_result(self, empty_db):
        empty_db.execute("INSERT INTO person (id, name, location) "
                         "VALUES (1, 'a', '1 Main Street, Paris')")
        result = empty_db.execute("SELECT * FROM person")
        assert isinstance(result, QueryResult)
        assert len(result) == 1
        assert result.to_dicts()[0]["location"] == "1 Main Street, Paris"

    def test_insert_with_column_subset_fills_nulls(self, empty_db):
        empty_db.execute("INSERT INTO person (id, location) VALUES (5, '1 Main Street, Paris')")
        row = empty_db.execute("SELECT * FROM person").to_dicts()[0]
        from repro.core.values import NULL
        assert row["name"] is NULL

    def test_insert_arity_mismatch_rejected(self, empty_db):
        with pytest.raises(ExecutionError):
            empty_db.execute("INSERT INTO person (id, name) VALUES (1)")

    def test_insert_unknown_location_value_rejected(self, empty_db):
        from repro.core.errors import UnknownValueError
        empty_db.execute("INSERT INTO person (id, location) VALUES (1, 'Atlantis Street')")
        # The value is stored (validation happens on degradation); degrading it fails
        # loudly rather than silently inventing data.
        empty_db.execute("DECLARE PURPOSE c SET ACCURACY LEVEL city FOR person.location")
        with pytest.raises(UnknownValueError):
            empty_db.execute("SELECT location FROM person", purpose="c")

    def test_where_filters(self, populated_db):
        result = populated_db.execute(
            "SELECT id, user_id FROM person WHERE user_id = 3")
        assert all(row[1] == 3 for row in result.rows)

    def test_order_by_and_limit(self, populated_db):
        result = populated_db.execute(
            "SELECT id, salary FROM person ORDER BY salary DESC LIMIT 5")
        salaries = result.column("salary")
        assert len(salaries) == 5
        assert salaries == sorted(salaries, reverse=True)

    def test_aggregate_count(self, populated_db):
        result = populated_db.execute("SELECT COUNT(*) AS n FROM person")
        assert result.rows[0][0] == 40

    def test_group_by(self, populated_db):
        result = populated_db.execute(
            "SELECT activity, COUNT(*) AS n FROM person GROUP BY activity")
        total = sum(row[1] for row in result.rows)
        assert total == 40

    def test_explain_shows_plan(self, populated_db):
        result = populated_db.execute("EXPLAIN SELECT * FROM person WHERE user_id = 1")
        plan_text = "\n".join(row[0] for row in result.rows)
        assert "SeqScan" in plan_text


class TestUpdateDelete:
    def test_update_stable_column(self, populated_db):
        count = populated_db.execute("UPDATE person SET activity = 'audited' WHERE user_id = 3")
        assert count >= 1
        result = populated_db.execute("SELECT activity FROM person WHERE user_id = 3")
        assert all(value == "audited" for value in result.column("activity"))

    def test_update_degradable_column_rejected(self, populated_db):
        with pytest.raises(PolicyError):
            populated_db.execute("UPDATE person SET location = 'elsewhere' WHERE id = 1")

    def test_delete_with_predicate(self, populated_db):
        before = populated_db.row_count("person")
        deleted = populated_db.execute("DELETE FROM person WHERE user_id = 3")
        assert deleted >= 1
        assert populated_db.row_count("person") == before - deleted

    def test_delete_all(self, populated_db):
        deleted = populated_db.execute("DELETE FROM person")
        assert deleted == 40
        assert populated_db.row_count("person") == 0

    def test_update_unknown_column_rejected(self, populated_db):
        from repro.core.errors import SchemaError
        with pytest.raises(SchemaError):
            populated_db.execute("UPDATE person SET ghost = 1")


class TestPurposes:
    def test_declare_purpose_registers(self, empty_db):
        empty_db.execute("DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location")
        purpose = empty_db.purpose("stat")
        assert purpose.requirement_for("person", "location") is not None

    def test_unknown_purpose_rejected(self, populated_db):
        with pytest.raises(CatalogError):
            populated_db.execute("SELECT * FROM person", purpose="ghost")

    def test_purpose_object_accepted_directly(self, populated_db):
        from repro.core.policy import Purpose
        purpose = Purpose("adhoc").require("person", "location", "country")
        result = populated_db.execute("SELECT location FROM person", purpose=purpose)
        assert set(result.column("location")) <= {"France", "Netherlands", "Belgium",
                                                  "Germany", "Spain", "Italy"}

    def test_redeclaring_purpose_replaces_it(self, empty_db):
        empty_db.execute("DECLARE PURPOSE p SET ACCURACY LEVEL city FOR person.location")
        empty_db.execute("DECLARE PURPOSE p SET ACCURACY LEVEL country FOR person.location")
        scheme = empty_db.catalog.scheme_for("person", "location")
        assert empty_db.purpose("p").accuracy_for("person", "location", scheme) == 3


class TestEngineConfiguration:
    def test_option_surface_is_pinned(self):
        """Every constructor option and every oracle variant multiplies the
        configurations the tests, oracles and benchmarks must cover.  Adding
        one means editing this list, and saying which two existing callers
        need different values (or which engine path has no other oracle)."""
        options = list(inspect.signature(InstantDB.__init__).parameters)[1:]
        assert options == [
            "clock", "strategy", "page_size", "buffer_capacity", "data_dir",
            "deterministic_crypto", "fault_plan"]
        assert VARIANT_NAMES == ("compiled", "remote")

    def test_wall_clock_engine_rejects_advance_time(self):
        db = InstantDB(clock="wall")
        with pytest.raises(ConfigurationError):
            db.advance_time(hours=1)

    def test_crypto_strategy_engine_works_end_to_end(self):
        db = build_engine(strategy="crypto")
        db.execute("INSERT INTO person (id, location, salary) "
                   "VALUES (1, '1 Main Street, Paris', 2000)")
        assert db.execute("SELECT location FROM person").rows == [("1 Main Street, Paris",)]
        db.advance_time(hours=2)
        db.execute("DECLARE PURPOSE c SET ACCURACY LEVEL city FOR person.location")
        assert db.execute("SELECT location FROM person", purpose="c").rows == [("Paris",)]

    def test_close_flushes(self, tmp_path):
        db = build_engine(data_dir=str(tmp_path / "data"))
        db.execute("INSERT INTO person (id, location) VALUES (1, '1 Main Street, Paris')")
        db.close()
        assert (tmp_path / "data" / "pages.db").exists()
        assert list((tmp_path / "data" / "wal").glob("*.seg"))
