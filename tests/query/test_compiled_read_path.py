"""The compiled read path: closures, pruning, covering index probes, streaming.

Covers the PR-5 overhaul end to end:

* prepared-statement re-execution performs **zero** predicate compilation
  (``StatementCacheStats.predicate_compiles`` / ``predicate_compile_hits``,
  the plan-cache analogue of the WAL's payload cache counters);
* the engine produces the reference model's results across the SQL surface
  (:mod:`repro.scenarios.reference` is the proof harness);
* the planner's column pruning reaches the store (subset decode) and the
  scan's visible rows;
* covering queries run as index scans through the record reader and answer
  as the model does, rows hidden by the level rule included;
* LIMIT over an index range streams B+-tree entries (O(k) index work);
* hash-join key extractors normalize unhashable degraded values once per row;
* ORDER BY columns that are not in the output list sort correctly and stay
  out of the result, on the engine and on the model.
"""

import pytest

from repro import InstantDB
from repro.core.errors import BindingError, GeneralizationError
from repro.core.generalization import GeneralizationScheme
from repro.core.values import SUPPRESSED
from repro.scenarios.reference import ReferenceModel


def make_stable_db(rows=200, model=False):
    """``t`` holding ``rows`` rows — in an engine, or with ``model`` in the
    reference model over that engine's catalog."""
    db = InstantDB()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, "
               "note TEXT)")
    target = ReferenceModel(db.catalog) if model else db
    target.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?)",
        [(i, f"g{i % 5}", (i * 7) % 101, f"note-{i}") for i in range(1, rows + 1)])
    return target


class TestZeroRecompilation:
    def test_prepared_reexecution_compiles_once(self):
        db = make_stable_db()
        sql = "SELECT id FROM t WHERE grp = 'g1' AND val > 50"
        db.execute(sql)
        stats = db.statements.stats
        assert stats.predicate_compiles == 1
        assert stats.predicate_compile_hits == 0
        for _ in range(5):
            db.execute(sql)
        assert stats.predicate_compiles == 1          # never recompiled
        assert stats.predicate_compile_hits == 5

    def test_catalog_change_invalidates_and_recompiles_once(self):
        db = make_stable_db()
        sql = "SELECT id FROM t WHERE val > 50"
        db.execute(sql)
        db.execute("CREATE INDEX idx_val ON t (val) USING btree")
        db.execute(sql)                               # replanned + recompiled
        db.execute(sql)                               # cached again
        assert db.statements.stats.predicate_compiles == 2
        assert db.statements.stats.predicate_compile_hits == 1


class TestEngineMatchesTheModel:
    QUERIES = [
        "SELECT id, val FROM t WHERE grp = 'g1' AND val > 50",
        "SELECT id FROM t WHERE note LIKE 'note-1%'",
        "SELECT id FROM t WHERE val BETWEEN 10 AND 30 ORDER BY id",
        "SELECT id FROM t WHERE grp IN ('g1', 'g2') AND NOT val >= 90",
        "SELECT id FROM t WHERE grp = 'g1' OR val < 5",
        "SELECT grp, COUNT(*) AS n, AVG(val) AS a FROM t GROUP BY grp "
        "HAVING n > 10 ORDER BY grp",
        "SELECT id, val FROM t ORDER BY val DESC, id ASC LIMIT 7",
        "SELECT grp FROM t ORDER BY val DESC, id ASC LIMIT 7",
        "SELECT * FROM t WHERE id = 42",
        "SELECT note FROM t WHERE val <= 3",
        "SELECT id FROM t WHERE note IS NOT NULL AND val != 7",
    ]

    def test_same_results_across_the_sql_surface(self):
        engine = make_stable_db()
        model = make_stable_db(model=True)
        for sql in self.QUERIES:
            left = engine.execute(sql)
            right = model.execute(sql)
            assert left.columns == right.columns, sql
            assert sorted(map(repr, left.rows)) == sorted(map(repr, right.rows)), sql

    def test_join_results_match(self):
        for model in (False, True):
            db = InstantDB()
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, "
                       "note TEXT)")
            db.execute("CREATE TABLE team (tid INT PRIMARY KEY, city TEXT)")
            target = ReferenceModel(db.catalog) if model else db
            target.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                               [(i, f"g{i}", i, "") for i in range(1, 51)])
            target.executemany("INSERT INTO team VALUES (?, ?)",
                               [(i, f"city-{i}") for i in range(1, 11)])
            result = target.execute(
                "SELECT t.id, team.city FROM t JOIN team ON t.id = team.tid")
            assert sorted(result.rows) == [(i, f"city-{i}") for i in range(1, 11)]


class TestColumnPruning:
    def test_planner_computes_the_needed_set(self):
        db = make_stable_db()
        plan = db.planner.plan_physical(
            db.prepare("SELECT id FROM t WHERE val > 50 ORDER BY id").statement)
        assert plan.base.needed_columns == ("id", "val")

    def test_select_star_decodes_everything(self):
        db = make_stable_db()
        plan = db.planner.plan_physical(db.prepare("SELECT * FROM t").statement)
        assert plan.base.needed_columns is None

    def test_store_subset_read_skips_unrequested_columns(self):
        db = make_stable_db()
        store = db.table_store("t")
        row = store.read(1, columns=frozenset(["grp"]))
        assert row.values == {"grp": "g1"}
        full = store.read(1)
        assert set(full.values) == {"id", "grp", "val", "note"}

    def test_pruned_query_returns_the_same_rows(self):
        db = make_stable_db()
        baseline = make_stable_db(model=True)
        sql = "SELECT grp, val FROM t WHERE id <= 10"
        assert db.execute(sql).rows == baseline.execute(sql).rows

    def test_row_key_only_queries_decode_no_values(self):
        db = make_stable_db()
        plan = db.planner.plan_physical(
            db.prepare("SELECT COUNT(*) AS n FROM t").statement)
        assert plan.base.needed_columns == ()
        assert db.execute("SELECT COUNT(*) AS n FROM t").rows == [(200,)]


class TestCoveringIndexQueries:
    """A query the index alone could answer still reads the heap through the
    record reader, so the level rule decides every row it returns."""

    def make_indexed(self):
        db = make_stable_db()
        db.execute("CREATE INDEX idx_val ON t (val) USING btree")
        return db

    def test_covering_range_query_runs_as_index_scan(self):
        db = self.make_indexed()
        sql = "SELECT val FROM t WHERE val BETWEEN 10 AND 20"
        explain = "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows)
        assert "IndexRangeScan(idx_val" in explain
        store = db.table_store("t")
        reads_before = store.stats.reads
        result = db.execute(sql)
        assert store.stats.reads > reads_before       # the heap is fetched
        assert sorted(result.rows) == \
            sorted(make_stable_db(model=True).execute(sql).rows)

    def test_non_covering_query_still_fetches_the_heap(self):
        db = self.make_indexed()
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id, val FROM t WHERE val BETWEEN 10 AND 20").rows)
        assert "IndexOnlyScan" not in explain
        assert "IndexRangeScan" in explain

    def test_covering_aggregate_over_equality_probe(self):
        db = self.make_indexed()
        sql = "SELECT COUNT(*) AS n FROM t WHERE val = 7"
        explain = "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows)
        assert "IndexScan(idx_val val=7)" in explain
        baseline = make_stable_db(model=True)
        assert db.execute(sql).rows == baseline.execute(sql).rows

    @staticmethod
    def make_located(index_sql):
        """``p (id, location)`` in an engine and in the model over its
        catalog, the location degrading address → city after an hour."""
        from repro import AttributeLCP
        from repro.core.domains import build_location_tree
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location,
                                        transitions=["1 h", "1 d", "1 month", "3 months"],
                                        name="location_lcp"))
        db.execute("CREATE TABLE p (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        db.execute(index_sql)
        return db, ReferenceModel(db.catalog)

    def test_rows_hidden_by_the_level_rule_stay_hidden_through_the_index(self):
        """Rows whose location is stored coarser than the purpose demands
        take no part, whichever access path reaches them."""
        db, model = self.make_located("CREATE INDEX idx_id ON p (id) USING btree")
        sql = "INSERT INTO p VALUES (?, ?)"
        for target in (db, model):
            target.executemany(sql, [(i, "1 Main Street, Paris")
                                     for i in range(1, 50)])
        db.advance_time(hours=2)               # ids 1..49 at city level
        model.advance(2 * 3600)
        for target in (db, model):
            target.executemany(sql, [(i, "1 Main Street, Paris")
                                     for i in range(50, 100)])
        db.execute("DECLARE PURPOSE exact SET ACCURACY LEVEL address "
                   "FOR p.location")
        query = "SELECT id FROM p WHERE id BETWEEN 45 AND 55"
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN " + query, purpose="exact").rows)
        assert "IndexRangeScan(idx_id" in explain
        result = db.execute(query, purpose="exact")
        assert sorted(result.rows) == [(i,) for i in range(50, 56)]
        assert sorted(result.rows) == \
            sorted(model.execute(query, purpose="exact").rows)

    def test_gt_covering_probe_answers_as_the_model(self):
        db, model = self.make_located("CREATE INDEX idx_loc ON p (location) USING gt")
        for target in (db, model):
            target.executemany(
                "INSERT INTO p VALUES (?, ?)",
                [(i, "1 Main Street, Paris" if i % 2 else "2 Station Road, Lyon")
                 for i in range(1, 101)])
        db.advance_time(hours=2)               # everything at city level
        model.advance(2 * 3600)
        db.execute("DECLARE PURPOSE stat SET ACCURACY LEVEL city "
                   "FOR p.location")
        query = "SELECT location FROM p WHERE location = 'Paris'"
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN " + query, purpose="stat").rows)
        assert "GTIndexScan(idx_loc" in explain
        result = db.execute(query, purpose="stat")
        assert result.rows == [("Paris",)] * 50
        assert result.rows == model.execute(query, purpose="stat").rows


class TestStreamedIndexRange:
    def test_limit_over_range_does_bounded_index_work(self):
        db = make_stable_db(rows=2000)
        db.execute("CREATE INDEX idx_id ON t (id) USING btree")
        index = db.catalog.index("t", "idx_id").index
        index.stats.reset()
        result = db.execute(
            "SELECT id, grp FROM t WHERE id BETWEEN 1 AND 500 LIMIT 5")
        assert len(result.rows) == 5
        # O(k), not O(range): one fetch chunk of entries, not 1500.
        assert 0 < index.stats.entries_scanned <= 32
        store = db.table_store("t")
        # Heap reads are likewise bounded by the first fetch chunk.
        assert db.executor.last_pipeline.find("IndexScan").stats.rows_out == 5


class TestHashJoinCompiledKeys:
    class ListScheme(GeneralizationScheme):
        """Degrades scalars into *lists* — an unhashable visible value."""

        name = "listy"

        @property
        def num_levels(self):
            return 3

        def generalize(self, value, to_level, from_level=0):
            if to_level == self.max_level:
                return SUPPRESSED
            if to_level == 0:
                return value
            return ["bucket", str(value)[:1].lower()]

    def make_listy_db(self):
        from repro import AttributeLCP
        db = InstantDB()
        db.register_domain(self.ListScheme(), name="listy")
        db.register_policy(AttributeLCP(self.ListScheme(),
                                        transitions=["1 h", "1 d"],
                                        name="listy_lcp"))
        db.execute("CREATE TABLE a (id INT PRIMARY KEY, tag TEXT "
                   "DEGRADABLE DOMAIN listy POLICY listy_lcp)")
        db.execute("CREATE TABLE b (bid INT PRIMARY KEY, tag TEXT "
                   "DEGRADABLE DOMAIN listy POLICY listy_lcp)")
        db.executemany("INSERT INTO a VALUES (?, ?)",
                       [(1, "alpha"), (2, "beta"), (3, "avocado")])
        db.executemany("INSERT INTO b VALUES (?, ?)",
                       [(10, "apple"), (11, "banana")])
        db.execute("DECLARE PURPOSE coarse SET ACCURACY LEVEL level1 "
                   "FOR a.tag, level1 FOR b.tag")
        return db

    def test_join_on_list_typed_degraded_values(self):
        """Regression: the compiled key extractor normalizes unhashable
        degraded values (lists) instead of crashing in the hash probe."""
        db = self.make_listy_db()
        result = db.execute(
            "SELECT a.id, b.bid FROM a JOIN b ON a.tag = b.tag",
            purpose="coarse")
        # 'alpha'/'avocado' → ['bucket','a'] matches 'apple'; 'beta' matches
        # 'banana'.
        assert sorted(result.rows) == [(1, 10), (2, 11), (3, 10)]


class TestExplainShape:
    def test_explain_has_estimates_and_index_scan_node(self):
        db = make_stable_db()
        db.execute("CREATE INDEX idx_val ON t (val) USING btree")
        sql = "SELECT val FROM t WHERE val BETWEEN 10 AND 20 LIMIT 3"
        lines = [r[0] for r in db.execute("EXPLAIN " + sql).rows]
        text = "\n".join(lines)
        assert "IndexRangeScan(idx_val" in text
        assert "est~" in text
        assert len(db.execute(sql).rows) == 3

    def test_explain_analyze_shows_estimate_vs_actual(self):
        db = make_stable_db()
        text = "\n".join(r[0] for r in db.execute(
            "EXPLAIN ANALYZE SELECT id FROM t WHERE grp = 'g1'").rows)
        assert "(rows=" in text and "(est~" in text


class TestOrderByHiddenColumns:
    """Regression: ORDER BY columns absent from the output list used to fail
    binding; now they sort the rows and stay out of the result."""

    MODES = pytest.mark.parametrize("model", [False, True],
                                    ids=["engine", "model"])

    @MODES
    def test_sorts_by_hidden_column_and_drops_it(self, model):
        db = make_stable_db(rows=30, model=model)
        result = db.execute("SELECT grp FROM t ORDER BY val DESC, id ASC")
        assert result.columns == ["grp"]
        order = sorted(range(1, 31), key=lambda i: (-((i * 7) % 101), i))
        assert result.rows == [(f"g{i % 5}",) for i in order]

    @MODES
    def test_topn_with_hidden_sort_column(self, model):
        db = make_stable_db(rows=30, model=model)
        result = db.execute("SELECT note FROM t ORDER BY val DESC, id LIMIT 4")
        assert result.columns == ["note"]
        order = sorted(range(1, 31), key=lambda i: (-((i * 7) % 101), i))
        assert result.rows == [(f"note-{i}",) for i in order[:4]]

    def test_aggregate_may_order_by_hidden_group_column(self):
        db = make_stable_db(rows=30)
        result = db.execute(
            "SELECT COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp DESC")
        assert result.columns == ["n"]
        assert len(result.rows) == 5

    def test_aggregate_order_by_non_group_column_still_errors(self):
        db = make_stable_db(rows=30)
        with pytest.raises(BindingError):
            db.execute("SELECT COUNT(*) AS n FROM t GROUP BY grp ORDER BY val")
