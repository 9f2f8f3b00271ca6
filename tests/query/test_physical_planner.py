"""Physical planning: access-path selection, where each WHERE conjunct runs
(inside the scan of the one table it reads, minus what the access path already
guarantees; above the joins otherwise) and plan-time name binding."""

import os

import pytest

import repro
import repro.client
from repro.core.errors import BindingError
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.lcp import AttributeLCP
from repro.core.policy import Purpose
from repro.core.schema import Column, TableSchema
from repro.index.btree import BPlusTreeIndex
from repro.index.gt_index import GTIndex
from repro.index.hashindex import HashIndex
from repro.query import ast_nodes as ast
from repro.query.catalog import Catalog, IndexInfo
from repro.query.operators import render_expression
from repro.query.parser import parse
from repro.query.planner import Planner
from repro.scenarios.reference import ReferenceModel
from repro.server import ServerThread


@pytest.fixture
def catalog():
    catalog = Catalog()
    location = catalog.registry.register_domain(build_location_tree())
    catalog.registry.register_domain(build_salary_ranges())
    catalog.registry.register_policy(
        AttributeLCP(location, transitions=["1 h", "1 d", "1 month", "3 months"],
                     name="location_lcp"))
    schema = TableSchema("person", [
        Column("id", "INT", primary_key=True),
        Column("name", "TEXT"),
        Column("location", "TEXT", degradable=True, domain="location",
               policy="location_lcp"),
        Column("salary", "INT"),
    ])
    catalog.add_table(schema)
    catalog.add_index(IndexInfo(name="idx_id", table="person", column="id",
                                method="hash", index=HashIndex("idx_id")))
    catalog.add_index(IndexInfo(name="idx_salary", table="person", column="salary",
                                method="btree", index=BPlusTreeIndex("idx_salary")))
    catalog.add_index(IndexInfo(name="idx_loc", table="person", column="location",
                                method="gt",
                                index=GTIndex("idx_loc", location)))
    return catalog


@pytest.fixture
def planner(catalog):
    return Planner(catalog)


def plan(planner, sql, purpose=None):
    return planner.plan_physical(parse(sql), purpose)


class TestAccessPathSelection:
    def test_no_where_uses_seq_scan(self, planner):
        physical = plan(planner, "SELECT * FROM person")
        assert physical.base.access.kind == "seq"
        assert physical.residual is None

    def test_unindexed_predicate_uses_seq_scan(self, planner):
        physical = plan(planner, "SELECT * FROM person WHERE name = 'alice'")
        assert physical.base.access.kind == "seq"
        assert render_expression(physical.base.filter) == "name = 'alice'"
        assert physical.residual is None        # nothing is left above the scan

    def test_equality_on_hash_indexed_column(self, planner):
        physical = plan(planner, "SELECT * FROM person WHERE id = 7")
        assert physical.base.access.kind == "index_eq"
        assert physical.base.access.column == "id"
        assert physical.base.access.key == 7

    def test_range_on_btree_indexed_column(self, planner):
        physical = plan(planner,
                        "SELECT * FROM person WHERE salary >= 1000 AND salary < 3000")
        access = physical.base.access
        assert access.kind == "index_range"
        assert (access.low, access.high) == (1000, 3000)
        assert access.include_low and not access.include_high

    def test_gt_level_on_degradable_column_with_purpose(self, planner):
        purpose = Purpose("stat").require("person", "location", "city")
        physical = plan(planner, "SELECT * FROM person WHERE location = 'Paris'",
                        purpose)
        access = physical.base.access
        assert access.kind == "gt_level"
        assert access.level == 1          # city
        assert access.key == "Paris"

    def test_unconstrained_accuracy_falls_back_to_seq(self, planner):
        """A purpose that does not mention the column leaves its accuracy
        unconstrained (stored level varies per row), so the GT index cannot
        be probed at one level and the planner keeps a sequential scan."""
        purpose = Purpose("other")        # no requirement on person.location
        physical = plan(planner, "SELECT * FROM person WHERE location = 'Paris'",
                        purpose)
        assert physical.base.access.kind == "seq"
        assert physical.base.filter is not None  # predicate still evaluated

    def test_degradable_range_never_uses_btree(self, planner):
        physical = plan(planner,
                        "SELECT * FROM person WHERE location >= 'A' AND location <= 'Z'")
        assert physical.base.access.kind == "seq"


class TestResidualSplit:
    def test_fully_covered_where_has_no_residual(self, planner):
        physical = plan(planner, "SELECT * FROM person WHERE id = 7")
        assert physical.residual is None

    def test_uncovered_conjuncts_stay_residual(self, planner):
        physical = plan(planner,
                        "SELECT * FROM person WHERE id = 7 AND name = 'alice'")
        assert physical.base.access.kind == "index_eq"
        assert render_expression(physical.base.filter) == "name = 'alice'"

    def test_range_bounds_are_covered(self, planner):
        physical = plan(planner,
                        "SELECT * FROM person WHERE salary >= 1000 AND salary < 3000")
        assert physical.residual is None

    def test_between_is_covered(self, planner):
        physical = plan(planner,
                        "SELECT * FROM person WHERE salary BETWEEN 1000 AND 3000")
        assert physical.base.access.kind == "index_range"
        assert physical.residual is None

    def test_overwritten_range_bound_stays_residual(self, planner):
        """Two lower bounds on one column: the index keeps only the last one,
        so the other must still be checked per row."""
        physical = plan(planner,
                        "SELECT * FROM person WHERE salary > 2000 AND salary > 500")
        access = physical.base.access
        assert access.kind == "index_range"
        assert access.low == 500
        assert render_expression(physical.base.filter) == "salary > 2000"

    def test_gt_covered_conjunct_dropped(self, planner):
        purpose = Purpose("stat").require("person", "location", "city")
        physical = plan(planner,
                        "SELECT * FROM person WHERE location = 'Paris' AND salary > 100",
                        purpose)
        assert physical.base.access.kind == "gt_level"
        assert render_expression(physical.base.filter) == "salary > 100"

    def test_null_equality_key_is_not_covered(self, planner):
        physical = plan(planner, "SELECT * FROM person WHERE id = NULL")
        assert physical.base.filter is not None

    def test_conjuncts_go_below_the_join(self, planner, catalog):
        catalog.add_table(TableSchema("team", [
            Column("tid", "INT", primary_key=True),
            Column("city", "TEXT"),
            Column("salary", "INT"),
        ]))
        physical = plan(planner,
                        "SELECT person.name FROM person "
                        "JOIN team ON person.id = team.tid "
                        "WHERE id = 7 AND city = 'Lyon' AND name != city "
                        "AND person.salary > team.salary")
        # the base conjunct feeds its access path, the joined table's its scan
        assert physical.base.access.kind == "index_eq"
        assert physical.base.filter is None
        (_clause, team), = physical.joins
        assert render_expression(team.filter) == "city = 'Lyon'"
        # what reads two tables stays above the join
        assert render_expression(physical.residual) == \
            "(name != city AND person.salary > team.salary)"
        # each scan decodes what the query reads of it, nothing else
        assert physical.base.needed_columns == ("id", "name", "salary")
        assert team.needed_columns == ("city", "salary", "tid")

    def test_left_join_right_side_conjunct_is_not_pushed(self, planner, catalog):
        """It must see the NULL padding: ``team.city IS NULL`` keeps exactly
        the persons without a team."""
        catalog.add_table(TableSchema("team", [
            Column("tid", "INT", primary_key=True), Column("city", "TEXT")]))
        physical = plan(planner,
                        "SELECT person.name FROM person LEFT JOIN team "
                        "ON person.id = team.tid "
                        "WHERE team.city IS NULL AND person.name = 'x'")
        (_clause, team), = physical.joins
        assert team.filter is None
        assert render_expression(physical.residual) == "team.city IS NULL"
        assert render_expression(physical.base.filter) == "person.name = 'x'"

    def test_or_predicate_is_never_split(self, planner):
        physical = plan(planner,
                        "SELECT * FROM person WHERE id = 7 OR name = 'alice'")
        assert physical.base.access.kind == "seq"
        assert isinstance(physical.base.filter, ast.BooleanOp)
        assert physical.base.filter.operator == "OR"


class TestPlanCachingShape:
    def test_physical_plan_is_what_prepared_statements_cache(self, planner):
        from repro.query.planner import PhysicalPlan
        physical = plan(planner, "SELECT * FROM person WHERE id = 7")
        assert isinstance(physical, PhysicalPlan)
        # Planning twice yields equivalent plans (no shared mutable state
        # beyond the immutable AST/stats-free descriptors).
        again = plan(planner, "SELECT * FROM person WHERE id = 7")
        assert again.base.access.kind == physical.base.access.kind


# -- names bind when the plan is built ------------------------------------------


@pytest.fixture(params=["engine", "model"])
def joined_db(request):
    """Two tables sharing ``id`` and ``name``, one matching pair of rows — in
    the engine over the transport ``REPRO_TRANSPORT`` names (the server
    refuses a statement with the same typed error), or in the reference model
    over the engine's catalog: the model binds names the same way."""
    db = repro.InstantDB()
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, name TEXT, b_id INT)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, name TEXT)")
    target = ReferenceModel(db.catalog) if request.param == "model" else db
    target.execute("INSERT INTO a VALUES (2, 'left', 10)")
    target.execute("INSERT INTO b VALUES (10, 'right')")
    if request.param == "model":
        yield target
        return
    if os.environ.get("REPRO_TRANSPORT") != "remote":
        connection = repro.connect(engine=db)
        yield connection
        connection.close()
        return
    server = ServerThread(db).start()
    connection = repro.client.connect(*server.address)
    try:
        yield connection
    finally:
        connection.close()
        server.stop()


class TestNamesBindAtPlanTime:
    JOIN = "FROM a JOIN b ON a.b_id = b.id"

    def rows(self, connection, sql):
        cursor = connection.cursor()
        cursor.execute(sql)
        rows = cursor.fetchall()
        connection.commit()
        return rows

    @pytest.mark.parametrize("sql", [
        "SELECT id, name {join}",                     # used to answer b's (10, 'right')
        "SELECT a.id {join} WHERE name = 'left'",     # used to find nothing
        "SELECT a.id {join} WHERE name = 'right'",    # used to find the row
        "SELECT a.id {join} ORDER BY name",
        "SELECT COUNT(*) {join} GROUP BY name",
    ])
    def test_a_name_two_tables_have_is_ambiguous(self, joined_db, sql):
        with pytest.raises(BindingError, match="ambiguous"):
            self.rows(joined_db, sql.format(join=self.JOIN))
        joined_db.rollback()

    @pytest.mark.parametrize("sql", [
        "SELECT a.id {join} WHERE nosuch = 1 AND a.id = 2",   # used to answer []
        "SELECT a.id {join} WHERE a.id = 3 AND a.nosuch = 1",
        "SELECT nosuch FROM a WHERE id = 3",
        "SELECT id FROM a WHERE id = 3 ORDER BY nosuch",
        "SELECT c.id FROM a",
        "UPDATE a SET name = 'x' WHERE nosuch = 1 AND id = 3",
        "DELETE FROM a WHERE id = 3 AND nosuch = 1",
    ])
    def test_an_unknown_column_fails_whatever_the_data(self, joined_db, sql):
        """No row reaches any of these predicates."""
        with pytest.raises(BindingError, match="unknown column"):
            self.rows(joined_db, sql.format(join=self.JOIN)) \
                if sql.startswith("SELECT") else joined_db.cursor().execute(sql)
        joined_db.rollback()

    def test_qualified_and_uniquely_resolving_names_bind(self, joined_db):
        assert self.rows(joined_db, f"SELECT a.id, a.name, b.name, b_id {self.JOIN} "
                                    "WHERE b_id = 10 AND b.name = 'right'") == \
            [(2, "left", "right", 10)]
