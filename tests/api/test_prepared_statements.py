"""Prepared-statement cache: parse-once semantics, plan reuse, invalidation."""

from __future__ import annotations

import pytest

import repro
from repro import InstantDB, connect
from repro.query.prepared import StatementCache

SQL_INSERT = "INSERT INTO t VALUES (?, ?)"


@pytest.fixture
def db():
    engine = InstantDB()
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    return engine


class TestStatementCache:
    def test_same_sql_hits_cache(self, db):
        first = db.prepare(SQL_INSERT)
        second = db.prepare(SQL_INSERT)
        assert first is second
        assert db.statements.stats.hits >= 1

    def test_param_count_precomputed(self, db):
        assert db.prepare(SQL_INSERT).param_count == 2
        assert db.prepare("SELECT * FROM t").param_count == 0

    def test_lru_eviction(self):
        cache = StatementCache(capacity=2)
        a = cache.get_or_parse("SELECT * FROM a")
        cache.get_or_parse("SELECT * FROM b")
        cache.get_or_parse("SELECT * FROM c")      # evicts a
        assert cache.stats.evictions == 1
        assert "SELECT * FROM a" not in cache
        assert cache.get_or_parse("SELECT * FROM a") is not a

    def test_executemany_parses_once(self, db):
        misses_before = db.statements.stats.misses
        db.executemany(SQL_INSERT, [(i, "x") for i in range(100)])
        assert db.statements.stats.misses == misses_before + 1
        assert db.row_count("t") == 100


class TestExecutemanySemantics:
    def test_single_transaction_and_rowcount(self, db):
        begun = db.transactions.stats.begun
        total = db.executemany(SQL_INSERT, [(i, "x") for i in range(10)])
        assert total == 10
        assert db.transactions.stats.begun == begun + 1
        assert db.transactions.stats.committed >= 1

    def test_failure_rolls_back_whole_batch(self, db):
        with pytest.raises(Exception):
            # the third row has a bad parameter count
            db.executemany(SQL_INSERT, [(1, "a"), (2, "b"), (3,)])
        assert db.row_count("t") == 0

    def test_a_query_is_refused_by_the_engine_itself(self, db):
        # one check under both drivers; it used to run the SELECT N times
        # and return 0 when called at engine level
        from repro.core.errors import NotSupportedError
        executed = db.stats.statements_executed
        for sql in ("SELECT * FROM t", "EXPLAIN SELECT * FROM t"):
            with pytest.raises(NotSupportedError):
                db.executemany(sql, [(), ()])
        assert db.stats.statements_executed == executed

    def test_multi_row_values_batch(self, db):
        total = db.executemany("INSERT INTO t VALUES (?, ?), (?, ?)",
                               [(1, "a", 2, "b"), (3, "c", 4, "d")])
        assert total == 4
        assert db.row_count("t") == 4


class TestInsertSlotBinding:
    """An INSERT resolves its VALUES slots once; per row it only fills them."""

    SQL = "INSERT INTO t (id, name) VALUES (?, 'fixed'), (7, ?)"

    def test_same_statement_as_the_generic_binder(self, db):
        from repro.query.parameters import bind_parameters
        prepared = db.prepare(self.SQL)
        for params in [(1, "a"), (2, None), (True, "x")]:
            assert prepared.bind(params) == \
                bind_parameters(prepared.statement, params)
        assert prepared.bind((1, "a")).rows == ((1, "fixed"), (7, "a"))

    def test_no_tree_walk_per_row(self, db, monkeypatch):
        from repro.query import parameters
        db.execute(SQL_INSERT, params=(0, "warm"))      # resolves the sources

        def no_walk(*args, **kwargs):
            raise AssertionError("executemany walked the AST for a row")

        monkeypatch.setattr(parameters, "_bind_node", no_walk)
        monkeypatch.setattr(parameters, "insert_sources", no_walk)
        assert db.executemany(SQL_INSERT, [(i, "x") for i in range(1, 51)]) == 50

    @pytest.mark.parametrize("params, message", [
        ((1,), "takes 2 parameter(s) but 1 were given"),
        ((1, "a", 3), "takes 2 parameter(s) but 3 were given"),
        ("ab", "not a bare string"),
        ((1, b"raw"), "unsupported parameter type 'bytes'"),
    ])
    def test_same_errors_as_the_generic_binder(self, db, params, message):
        from repro.core.errors import ParameterError
        from repro.query.parameters import bind_parameters
        prepared = db.prepare(SQL_INSERT)
        with pytest.raises(ParameterError) as generic:
            bind_parameters(prepared.statement, params)
        with pytest.raises(ParameterError) as fast:
            db.execute(SQL_INSERT, params=params)
        assert str(fast.value) == str(generic.value)
        assert message in str(fast.value)
        assert db.row_count("t") == 0


class TestPlanReuse:
    def test_repeated_select_reuses_plan(self, db):
        db.executemany(SQL_INSERT, [(i, "x") for i in range(5)])
        db.execute("SELECT * FROM t")
        hits_before = db.statements.stats.plan_hits
        db.execute("SELECT * FROM t")
        db.execute("SELECT * FROM t")
        assert db.statements.stats.plan_hits == hits_before + 2

    def test_catalog_change_invalidates_plan(self, db):
        # Filter on the non-key column: the primary key has an index from
        # the start, so ``id = ?`` would never plan as a SeqScan.
        db.executemany(SQL_INSERT, [(i, f"n{i}") for i in range(5)])
        sql = "SELECT * FROM t WHERE name = 'n3'"
        assert "SeqScan" in db.execute(f"EXPLAIN {sql}").rows[0][0]
        db.execute(sql)
        db.execute(sql)                              # plan now cached
        db.execute("CREATE INDEX idx_name ON t (name) USING btree")
        result = db.execute(sql)                     # must not reuse stale plan
        assert result.rows == [(3, "n3")]
        assert "IndexScan" in db.execute(f"EXPLAIN {sql}").rows[0][0]

    def test_adhoc_purpose_sharing_a_name_is_not_served_a_cached_plan(self, db):
        """An ad-hoc Purpose must never reuse a plan cached under its name.

        Plans embed the accuracy levels the purpose demanded; serving a plan
        cached for a same-named catalog purpose would silently answer at the
        wrong accuracy — a privacy violation, not just a perf bug.
        """
        from repro import Purpose
        from repro.core.policy import AccuracyRequirement

        db.execute("DROP TABLE t")
        from ..conftest import build_engine
        engine = build_engine()
        engine.execute("INSERT INTO person (id, location) VALUES (?, ?)",
                       params=(1, "1 Main Street, Paris"))
        engine.execute("DECLARE PURPOSE p SET ACCURACY LEVEL city "
                       "FOR person.location")
        engine.advance_time(hours=2)          # degrade address -> city
        sql = "SELECT location FROM person"
        assert engine.execute(sql, purpose="p").rows == [("Paris",)]
        assert engine.execute(sql, purpose="p").rows == [("Paris",)]  # cached
        strict = Purpose("p")                 # same name, address-level demand
        strict.add_requirement(AccuracyRequirement(
            table="person", column="location", level="address"))
        # city-level data cannot answer an address-level demand: no rows,
        # and crucially not the cached city-level plan's rows
        assert engine.execute(sql, purpose=strict).rows == []

    def test_parameterized_selects_cache_a_template(self, db):
        db.executemany(SQL_INSERT, [(i, "x") for i in range(5)])
        prepared = db.prepare("SELECT * FROM t WHERE id = ?")
        db.execute("SELECT * FROM t WHERE id = ?", params=(1,))
        db.execute("SELECT * FROM t WHERE id = ?", params=(2,))
        # bound literals differ per execution: caching them would be wrong,
        # so the one cached entry keeps the parameter slot, not a value
        (key, template), = prepared._plans.items()
        assert key[3] == ("int",)
        assert repr(template.base.access.key) == "?0"


class TestCursorIntegration:
    def test_cursor_executemany_uses_engine_cache(self):
        conn = connect()
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        conn.commit()
        misses_before = conn.engine.statements.stats.misses
        cur.executemany(SQL_INSERT, [(i, "x") for i in range(200)])
        conn.commit()
        assert conn.engine.statements.stats.misses == misses_before + 1
        assert cur.rowcount == 200
        assert conn.engine.row_count("t") == 200
        conn.close()

    def test_executemany_looks_the_statement_up_once(self):
        conn = connect()
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        conn.commit()
        stats = conn.engine.statements.stats
        for batch in ([(1, "a"), (2, "b")], [(3, "c")]):
            lookups = stats.hits + stats.misses
            cur.executemany(SQL_INSERT, batch)
            assert stats.hits + stats.misses == lookups + 1
        with pytest.raises(repro.NotSupportedError):
            cur.executemany("SELECT * FROM t", [()])
        conn.close()
