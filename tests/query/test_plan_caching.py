"""Plan-cache keys: statistics epoch and parameter shape.

A prepared statement keeps one bounded template cache behind one accessor
(``PreparedStatement.plan``), keyed ``(purpose, catalog version, statistics
epoch, parameter shape)``:

* the **statistics epoch** retires a plan costed before a large stats shift
  (mass update, degradation wave) instead of reusing it under economics that
  no longer hold;
* statements whose placeholders all sit in the WHERE clause cache a
  **template plan per parameter shape** and bind values per execution,
  instead of re-planning on every execute; a parameter-free statement is
  the shape ``()``.
"""

import pytest

from repro import InstantDB
from repro.query.compiler import compile_select
from repro.query.planner import bind_physical_plan
from repro.query.prepared import PLAN_CACHE_SIZE
from repro.query.statistics import EPOCH_MOD_FLOOR
from repro.scenarios.reference import ReferenceModel


def cached(db, prepared, shape=(), purpose=None):
    """The template cached for the engine's current catalog version and
    statistics epoch, or ``None`` — a peek that builds nothing."""
    return prepared._plans.get((purpose, db.catalog.version,
                                db.statistics.epoch(), shape))


@pytest.fixture
def db():
    engine = InstantDB()
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT)")
    engine.executemany("INSERT INTO t VALUES (?, ?, ?)",
                       [(i, f"g{i % 5}", i) for i in range(1, 201)])
    engine.execute("CREATE INDEX idx_val ON t (val) USING btree")
    return engine


class TestStatisticsEpoch:
    def test_epoch_advances_on_bulk_modification(self, db):
        before = db.statistics.epoch()
        db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                       [(i, "gx", 1) for i in range(1000, 1000 + EPOCH_MOD_FLOOR)])
        assert db.statistics.epoch() > before

    def test_trickle_writes_keep_the_epoch_stable(self, db):
        before = db.statistics.epoch()
        db.execute("INSERT INTO t VALUES (?, ?, ?)", params=(999, "gx", 1))
        assert db.statistics.epoch() == before

    def test_epoch_is_monotonic_across_table_drop(self, db):
        before = db.statistics.epoch()
        db.execute("DROP TABLE t")
        assert db.statistics.epoch() > before

    def test_stats_shift_retires_cached_plan(self, db):
        """The PR-5 bug: a mass update collapses NDV, the cached index plan
        must not survive — the same predicate now matches the whole table."""
        sql = "SELECT id FROM t WHERE val = 1"
        prepared = db.prepare(sql)
        db.execute(sql)
        db.execute(sql)
        before = cached(db, prepared)
        assert before is not None
        assert before.base.access.kind == "index_eq"
        db.execute("UPDATE t SET val = 1")            # NDV 200 -> 1
        assert cached(db, prepared) is None
        assert db.execute(sql).rows == [(i,) for i in range(1, 201)]
        replanned = cached(db, prepared)
        assert replanned is not None
        assert replanned.base.access.kind == "seq"
        assert list(prepared._plans) == [(None, db.catalog.version,
                                          db.statistics.epoch(), ())]

    def test_recovery_reset_bumps_the_epoch(self, db):
        before = db.statistics.epoch()
        db.statistics.table("t").reset()
        assert db.statistics.epoch() > before


class TestParameterShapePlans:
    def test_repeated_parameterized_select_hits_the_plan_cache(self, db):
        sql = "SELECT id FROM t WHERE val = ?"
        misses_before = db.statements.stats.plan_misses
        hits_before = db.statements.stats.plan_hits
        for value in (3, 7, 11, 3, 42):
            assert db.execute(sql, params=(value,)).rows == [(value,)]
        assert db.statements.stats.plan_misses == misses_before + 1
        assert db.statements.stats.plan_hits == hits_before + 4

    def test_bound_values_reach_the_access_path(self, db):
        # the template probes the index with each execution's own value —
        # a stale embedded literal would return the wrong row
        sql = "SELECT id FROM t WHERE val = ?"
        assert db.execute(sql, params=(5,)).rows == [(5,)]
        assert db.execute(sql, params=(6,)).rows == [(6,)]
        assert db.execute(sql, params=(10_000,)).rows == []

    def test_range_and_residual_bind_per_execution(self, db):
        sql = ("SELECT id FROM t WHERE val BETWEEN ? AND ? AND grp = ? "
               "ORDER BY id")
        assert db.execute(sql, params=(10, 20, "g0")).rows == \
            [(10,), (15,), (20,)]
        assert db.execute(sql, params=(10, 20, "g1")).rows == \
            [(11,), (16,)]

    def test_binding_builds_row_closures_and_nothing_else(self, db):
        """One expression compiler: a plan carries its row layout and the
        row-at-a-time scan-filter, residual, projection, key and aggregate
        closures — no second compiled form of the same predicate — and a
        template compiles once however often it is bound."""
        sql = ("SELECT id FROM t WHERE val BETWEEN ? AND ? AND grp = ? "
               "ORDER BY id")
        artefacts = {"layout", "columns", "items", "project", "filters",
                     "reads", "residual", "join_keys", "aggregate", "hidden"}
        template = db.planner.plan_physical(db.prepare(sql).statement, None)
        assert set(vars(compile_select(db.catalog, template))) == artefacts
        shared = template.ensure_compiled(db.catalog)
        bound = bind_physical_plan(template, (10, 20, "g0"), db.catalog)
        rebound = bound.ensure_compiled(db.catalog)
        assert set(vars(rebound)) == artefacts
        assert rebound.project is shared.project        # template's closure
        assert rebound.layout is shared.layout and rebound.reads is shared.reads
        (shared_filter,), (filter_fn,) = shared.filters, rebound.filters
        assert filter_fn is not shared_filter           # bound per execution
        grp = rebound.layout.slots["grp"]       # rows are positional
        assert filter_fn([None] * grp + ["g0"])
        assert not filter_fn([None] * grp + ["g1"])

        stats = db.statements.stats
        compiles, hits = stats.predicate_compiles, stats.predicate_compile_hits
        for params in ((10, 20, "g0"), (30, 40, "g1"), (10, 20, "g0")):
            db.execute(sql, params=params)
        assert stats.predicate_compiles - compiles == 1
        assert stats.predicate_compile_hits - hits == 2

    def test_shapes_are_cached_separately(self, db):
        sql = "SELECT id FROM t WHERE val = ?"
        prepared = db.prepare(sql)
        db.execute(sql, params=(5,))
        db.execute(sql, params=(5.0,))
        assert cached(db, prepared, ("int",)) is not None
        assert cached(db, prepared, ("float",)) is not None
        assert cached(db, prepared, ("int",)) is not \
            cached(db, prepared, ("float",))

    def test_null_parameter_is_not_template_planned(self, db):
        sql = "SELECT id FROM t WHERE val = ?"
        prepared = db.prepare(sql)
        # NULL predicate semantics (always false) must not ride an index probe
        assert db.execute(sql, params=(None,)).rows == []
        assert prepared.plan_shape((None,)) is None
        assert not prepared._plans
        # and a later non-NULL execution still answers correctly
        assert db.execute(sql, params=(9,)).rows == [(9,)]

    def test_non_where_placeholders_are_not_eligible(self, db):
        insert = db.prepare("INSERT INTO t VALUES (?, ?, ?)")
        assert insert.plan_shape((1, "g", 1)) is None
        sql = ("SELECT grp, COUNT(*) AS n FROM t WHERE val > ? GROUP BY grp "
               "HAVING n > ? ORDER BY grp")
        having = db.prepare(sql)
        assert having.plan_shape((100, 10)) is None
        assert db.execute(sql, params=(100, 10)).rows == \
            [(f"g{i}", 20) for i in range(5)]
        assert not having._plans            # bound, then planned from scratch
        # without placeholders there is nothing to bind: the shape is ()
        assert db.prepare("SELECT id FROM t").plan_shape(()) == ()

    def test_stats_shift_retires_template_plans(self, db):
        sql = "SELECT id FROM t WHERE val = ?"
        prepared = db.prepare(sql)
        db.execute(sql, params=(1,))
        old = cached(db, prepared, ("int",))
        assert old is not None and old.base.access.kind == "index_eq"
        db.execute("UPDATE t SET val = 1")            # NDV 200 -> 1
        rows = db.execute(sql, params=(1,)).rows
        assert rows == [(i,) for i in range(1, 201)]
        fresh = cached(db, prepared, ("int",))
        assert fresh is not None
        assert fresh.base.access.kind == "seq"
        assert len(prepared._plans) == 1              # the old epoch's is gone

    def test_catalog_change_retires_template_plans(self, db):
        sql = "SELECT id FROM t WHERE grp = ?"
        prepared = db.prepare(sql)
        db.execute(sql, params=("g1",))
        seq = cached(db, prepared, ("str",))
        assert seq is not None and seq.base.access.kind == "seq"
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        rows = db.execute(sql, params=("g1",)).rows
        assert len(rows) == 40
        indexed = cached(db, prepared, ("str",))
        assert indexed is not None
        assert indexed.base.access.kind == "index_eq"
        assert len(prepared._plans) == 1              # the old version's is gone

    def test_template_cache_is_bounded(self, db):
        prepared = db.prepare("SELECT id FROM t WHERE val = ?")
        template = db.planner.plan_physical(prepared.statement, None)
        for index in range(PLAN_CACHE_SIZE + 4):
            plan, hit = prepared.plan(
                (None, db.catalog.version, 0, (f"shape{index}",)),
                lambda: template)
            assert plan is template and not hit
        assert len(prepared._plans) == PLAN_CACHE_SIZE
        # least recently used first: the oldest shapes went, the newest hits
        assert prepared.plan((None, db.catalog.version, 0,
                              (f"shape{PLAN_CACHE_SIZE + 3}",)),
                             lambda: None) == (template, True)
        assert (None, db.catalog.version, 0, ("shape0",)) not in prepared._plans

    def test_bound_templates_match_the_model(self):
        engine = InstantDB()
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, val INT)")
        engine.execute("CREATE INDEX idx_val ON t (val) USING btree")
        model = ReferenceModel(engine.catalog)
        for target in (engine, model):
            target.executemany("INSERT INTO t VALUES (?, ?)",
                               [(i, i % 13) for i in range(1, 151)])
        sql = "SELECT id FROM t WHERE val = ? AND id > ? ORDER BY id"
        for params in [(3, 0), (3, 100), (12, 50)]:
            left = engine.execute(sql, params=params).rows
            right = model.execute(sql, params).rows
            assert left == right
