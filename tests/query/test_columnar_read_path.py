"""Columnar segments and vectorized batch execution.

Covers the columnar read path end to end:

* vectorized execution produces results identical to the compiled row path
  and to the interpreted baseline across the SQL surface (the equivalence
  harness of ``test_compiled_read_path``, re-run over segments);
* the planner only picks ``ColumnarScan`` for sequential scans of
  columnarized tables on the optimized engine — the interpreted baseline
  never sees a columnar plan;
* zone maps prune segments that cannot match a residual range or equality
  predicate, and pruning is restricted to non-degradable columns;
* the segment mirror is maintained by the store's mutation hooks, so data
  changed after ``columnarize()`` stays visible;
* degradable columns round-trip through the value/level vectors with
  sentinel *identity* (``is SUPPRESSED``) and the paper's exclusion
  semantics (stored level coarser than demanded hides the row);
* parameterized plans re-bind into vectorized form;
* ORDER BY columns that are not in the output list sort correctly and stay
  out of the result (the hidden-sort-column fix), in every execution mode.
"""

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.core.errors import BindingError
from repro.core.values import SUPPRESSED
from repro.query.operators import BatchFilter, BatchProject, ColumnarScan

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"


def make_stable_db(optimized=True, rows=200, columnar=False):
    db = InstantDB(read_path_optimizations=optimized)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, "
               "note TEXT)")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?)",
        [(i, f"g{i % 5}", (i * 7) % 101, f"note-{i}") for i in range(1, rows + 1)])
    if columnar:
        db.columnarize("t")
    return db


def make_degradable_db(columnar=False):
    db = InstantDB()
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"],
        name="location_lcp"))
    # A slow second policy keeps tuples alive once location is suppressed.
    db.register_policy(AttributeLCP(salary, states=[0, 1],
                                    transitions=["12 months"],
                                    name="slow_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, "
               "salary INT DEGRADABLE DOMAIN salary POLICY slow_lcp, "
               "note TEXT)")
    db.executemany("INSERT INTO visits VALUES (?, ?, ?, ?)",
                   [(i, PARIS if i % 2 else LYON, 1000 + i, f"n-{i}")
                    for i in range(1, 41)])
    for level in ("address", "city", "region", "country", "suppressed"):
        db.execute(f"DECLARE PURPOSE {level} SET ACCURACY LEVEL {level} "
                   f"FOR visits.location")
    if columnar:
        db.columnarize("visits")
    return db


class TestVectorizedMatchesRowPath:
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
        columnar = make_stable_db(columnar=True)
        compiled = make_stable_db()
        interpreted = make_stable_db(False)
        for sql in self.QUERIES:
            want = compiled.execute(sql)
            base = interpreted.execute(sql)
            got = columnar.execute(sql)
            assert got.columns == want.columns == base.columns, sql
            expected = sorted(map(repr, want.rows))
            assert sorted(map(repr, base.rows)) == expected, sql
            assert sorted(map(repr, got.rows)) == expected, sql

    def test_joins_and_dml_fall_back_to_row_iteration(self):
        db = make_stable_db(rows=50, columnar=True)
        db.execute("CREATE TABLE team (tid INT PRIMARY KEY, city TEXT)")
        db.executemany("INSERT INTO team VALUES (?, ?)",
                       [(i, f"city-{i}") for i in range(1, 11)])
        result = db.execute(
            "SELECT t.id, team.city FROM t JOIN team ON t.id = team.tid")
        assert sorted(result.rows) == [(i, f"city-{i}") for i in range(1, 11)]
        assert db.execute("UPDATE t SET note = 'x' WHERE val < 10") > 0
        assert db.execute("DELETE FROM t WHERE grp = 'g0'") > 0

    def test_mutations_after_columnarize_stay_visible(self):
        db = make_stable_db(rows=20, columnar=True)
        baseline = make_stable_db(False, rows=20)
        for sql in ("INSERT INTO t VALUES (21, 'g9', 999, 'late')",
                    "UPDATE t SET val = 0 WHERE id <= 5",
                    "DELETE FROM t WHERE id = 10"):
            db.execute(sql)
            baseline.execute(sql)
        probe = "SELECT id, grp, val, note FROM t WHERE val >= 0 ORDER BY id"
        assert db.execute(probe).rows == baseline.execute(probe).rows


class TestPlanGating:
    def test_explain_shows_columnar_scan(self):
        db = make_stable_db(columnar=True)
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id, val FROM t WHERE val > 50").rows)
        assert "ColumnarScan" in explain

    def test_pipeline_uses_batch_operators(self):
        db = make_stable_db(columnar=True)
        result = db.execute("SELECT id, val FROM t WHERE val > 50")
        pipeline = result.pipeline
        assert isinstance(pipeline.find("ColumnarScan"), ColumnarScan)
        assert isinstance(pipeline.find("Filter"), BatchFilter)
        assert isinstance(pipeline.find("Project"), BatchProject)

    def test_non_columnarized_table_keeps_seq_scan(self):
        db = make_stable_db()
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id FROM t WHERE val > 50").rows)
        assert "ColumnarScan" not in explain and "SeqScan" in explain

    def test_interpreted_baseline_never_goes_columnar(self):
        db = make_stable_db(False, columnar=True)
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id FROM t WHERE val > 50").rows)
        assert "ColumnarScan" not in explain

    def test_index_scan_beats_columnar_on_selective_probe(self):
        db = make_stable_db(rows=3000, columnar=True)
        db.execute("CREATE INDEX idx_val ON t (val) USING btree")
        explain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT grp FROM t WHERE val = 7").rows)
        assert "ColumnarScan" not in explain and "IndexScan" in explain

    def test_parameterized_plans_vectorize_after_binding(self):
        db = make_stable_db(columnar=True)
        sql = "SELECT id, val FROM t WHERE val > ? AND grp = ?"
        first = db.execute(sql, params=(50, "g1"))
        second = db.execute(sql, params=(90, "g2"))
        for result in (first, second):
            assert isinstance(result.pipeline.find("Filter"), BatchFilter)
        baseline = make_stable_db(False)
        assert sorted(second.rows) == sorted(
            baseline.execute(sql, params=(90, "g2")).rows)


class TestZoneMapPruning:
    def test_range_predicate_prunes_non_matching_segments(self):
        db = make_stable_db(rows=3000, columnar=True)     # 3 segments of 1024
        result = db.execute("SELECT val FROM t WHERE id BETWEEN 100 AND 120")
        scan = result.pipeline.find("ColumnarScan")
        assert scan.segments_pruned == 2
        assert len(result.rows) == 21
        store = db.table_store("t")
        assert store.segments.stats.segments_pruned >= 2

    def test_equality_predicate_prunes(self):
        db = make_stable_db(rows=3000, columnar=True)
        result = db.execute("SELECT grp FROM t WHERE id = 2000")
        # The pk probe goes through the index; force the seq path on val.
        result = db.execute("SELECT id FROM t WHERE val = 7 AND id >= 1")
        scan = result.pipeline.find("ColumnarScan")
        assert scan is not None            # ran columnar; val spans all segments
        rows = {row[0] for row in result.rows}
        assert rows == {i for i in range(1, 3001) if (i * 7) % 101 == 7}

    def test_degradable_columns_are_never_prune_candidates(self):
        """Zone maps summarize *stored* values; predicates see generalized
        ones, so pruning on a degradable column would be unsound."""
        db = make_degradable_db(columnar=True)
        result = db.execute(
            "SELECT id FROM visits WHERE location = 'Paris'", purpose="city")
        scan = result.pipeline.find("ColumnarScan")
        assert scan is not None and scan.segments_pruned == 0
        assert len(result.rows) == 20


class TestDegradableColumnsThroughVectors:
    def test_generalize_on_read_matches_row_path(self):
        columnar = make_degradable_db(columnar=True)
        row_path = make_degradable_db()
        for purpose in ("address", "city", "region", "country"):
            sql = "SELECT id, location FROM visits ORDER BY id"
            assert columnar.execute(sql, purpose=purpose).rows == \
                row_path.execute(sql, purpose=purpose).rows, purpose

    def test_exclusion_hides_rows_stored_coarser_than_demanded(self):
        db = make_degradable_db(columnar=True)
        db.advance_time(hours=2)           # every location now at city level
        scanned = db.executor.stats.rows_excluded_not_computable
        assert db.execute("SELECT id FROM visits", purpose="address").rows == []
        assert db.executor.stats.rows_excluded_not_computable - scanned == 40
        assert len(db.execute("SELECT id FROM visits", purpose="city").rows) == 40

    def test_suppressed_sentinel_survives_vector_round_trip(self):
        db = make_degradable_db(columnar=True)
        db.advance_time(days=130)          # past '3 months': suppressed level
        rows = db.execute("SELECT location FROM visits",
                          purpose="suppressed").rows
        assert len(rows) == 40
        assert all(value is SUPPRESSED for (value,) in rows)

    def test_level_vector_tracks_degradation_waves(self):
        db = make_degradable_db(columnar=True)
        segments = db.table_store("visits").segments
        before = segments.stats.value_changes
        db.advance_time(hours=2)
        assert segments.stats.value_changes == before + 40
        levels = [level for segment in segments.segments
                  for level in segment.levels["location"]
                  if level is not None]
        assert levels and all(level == 1 for level in levels)


class TestOrderByHiddenColumns:
    """Regression: ORDER BY columns absent from the output list used to fail
    binding; now they sort the rows and stay out of the result."""

    MODES = [
        {"optimized": True, "columnar": True},
        {"optimized": True, "columnar": False},
        {"optimized": False, "columnar": False},
    ]

    @pytest.mark.parametrize("mode", MODES, ids=["columnar", "compiled",
                                                 "interpreted"])
    def test_sorts_by_hidden_column_and_drops_it(self, mode):
        db = make_stable_db(**mode, rows=30)
        result = db.execute("SELECT grp FROM t ORDER BY val DESC, id ASC")
        assert result.columns == ["grp"]
        order = sorted(range(1, 31), key=lambda i: (-((i * 7) % 101), i))
        assert result.rows == [(f"g{i % 5}",) for i in order]

    @pytest.mark.parametrize("mode", MODES, ids=["columnar", "compiled",
                                                 "interpreted"])
    def test_topn_with_hidden_sort_column(self, mode):
        db = make_stable_db(**mode, rows=30)
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
