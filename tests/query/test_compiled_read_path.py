"""The compiled read path: closures, pruning, index-only scans, streaming.

Covers the PR-5 overhaul end to end:

* prepared-statement re-execution performs **zero** predicate compilation
  (``StatementCacheStats.predicate_compiles`` / ``predicate_compile_hits``,
  the plan-cache analogue of the WAL's payload cache counters);
* the engine produces the reference model's results across the SQL surface
  (:mod:`repro.scenarios.reference` is the proof harness);
* the planner's column pruning reaches the store (subset decode) and the
  scan's visible rows;
* covering queries run as index-only scans over GT and B+-tree entries with
  zero heap reads;
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


class TestIndexOnlyScans:
    def make_indexed(self):
        db = make_stable_db()
        db.execute("CREATE INDEX idx_val ON t (val) USING btree")
        return db

    def test_covering_range_query_skips_the_heap(self):
        db = self.make_indexed()
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT val FROM t WHERE val BETWEEN 10 AND 20").rows)
        assert "IndexOnlyScan" in explain
        store = db.table_store("t")
        reads_before = store.stats.reads
        result = db.execute("SELECT val FROM t WHERE val BETWEEN 10 AND 20")
        assert store.stats.reads == reads_before      # zero heap fetches
        assert db.executor.stats.index_only_scans > 0
        expected = sorted(v for v in ((i * 7) % 101 for i in range(1, 201))
                          if 10 <= v <= 20)
        assert sorted(row[0] for row in result.rows) == expected

    def test_non_covering_query_still_fetches_the_heap(self):
        db = self.make_indexed()
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id, val FROM t WHERE val BETWEEN 10 AND 20").rows)
        assert "IndexOnlyScan" not in explain
        assert "IndexRangeScan" in explain

    def test_covering_aggregate_over_equality_probe(self):
        db = self.make_indexed()
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT COUNT(*) AS n FROM t WHERE val = 7").rows)
        assert "IndexOnlyScan" in explain
        baseline = make_stable_db(model=True)
        assert db.execute("SELECT COUNT(*) AS n FROM t WHERE val = 7").rows == \
            baseline.execute("SELECT COUNT(*) AS n FROM t WHERE val = 7").rows

    def test_demanded_accuracy_on_other_columns_blocks_index_only(self):
        """Visibility exclusion needs per-row levels from the heap, so a
        degradable column with a demanded level disables the heap skip."""
        from repro import AttributeLCP
        from repro.core.domains import build_location_tree
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location,
                                        transitions=["1 h", "1 d", "1 month", "3 months"],
                                        name="location_lcp"))
        db.execute("CREATE TABLE p (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        db.execute("CREATE INDEX idx_id ON p (id) USING btree")
        db.executemany("INSERT INTO p VALUES (?, ?)",
                       [(i, "1 Main Street, Paris") for i in range(1, 100)])
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id FROM p WHERE id BETWEEN 5 AND 90").rows)
        assert "IndexOnlyScan" not in explain

    def test_gt_covering_probe_is_index_only(self):
        from repro import AttributeLCP
        from repro.core.domains import build_location_tree
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location,
                                        transitions=["1 h", "1 d", "1 month", "3 months"],
                                        name="location_lcp"))
        db.execute("CREATE TABLE p (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        db.execute("CREATE INDEX idx_loc ON p (location) USING gt")
        db.executemany(
            "INSERT INTO p VALUES (?, ?)",
            [(i, "1 Main Street, Paris" if i % 2 else "2 Station Road, Lyon")
             for i in range(1, 101)])
        db.advance_time(hours=2)               # everything at city level
        db.execute("DECLARE PURPOSE stat SET ACCURACY LEVEL city "
                   "FOR p.location")
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT location FROM p WHERE location = 'Paris'",
            purpose="stat").rows)
        assert "IndexOnlyScan" in explain
        store = db.table_store("p")
        reads_before = store.stats.reads
        result = db.execute("SELECT location FROM p WHERE location = 'Paris'",
                            purpose="stat")
        assert store.stats.reads == reads_before
        assert result.rows == [("Paris",)] * 50


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
    def test_explain_has_estimates_and_index_only_node(self):
        db = make_stable_db()
        db.execute("CREATE INDEX idx_val ON t (val) USING btree")
        lines = [r[0] for r in db.execute(
            "EXPLAIN SELECT val FROM t WHERE val BETWEEN 10 AND 20 LIMIT 3").rows]
        text = "\n".join(lines)
        assert "IndexOnlyScan" in text
        assert "est~" in text

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
