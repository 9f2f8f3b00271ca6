"""Streaming operator pipeline: early exit, Top-N, joins, EXPLAIN, cursors."""

import pytest

import repro
from repro import InstantDB


@pytest.fixture
def db():
    db = InstantDB()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                   [(i, f"g{i % 5}", (i * 7) % 101) for i in range(1, 501)])
    return db


class TestLimitEarlyExit:
    def test_limit_pulls_only_k_rows_past_the_scan(self, db):
        result = db.execute("SELECT id FROM t LIMIT 5")
        assert result.rows == [(1,), (2,), (3,), (4,), (5,)]
        scan = result.pipeline.find("SeqScan")
        # O(k), not O(n): the scan produced exactly the 5 rows Limit pulled.
        assert scan.stats.rows_out == 5

    def test_limit_with_filter_stops_at_k_matches(self, db):
        result = db.execute("SELECT id FROM t WHERE grp = 'g1' LIMIT 3")
        assert len(result.rows) == 3
        scan = result.pipeline.find("SeqScan")
        # The filter runs inside the scan, which stopped as soon as 3 rows
        # had passed it (ids 1, 6, 11) and had read 11 record headers by then.
        assert scan.stats.rows_out == 3
        assert scan.examined == 11
        assert result.pipeline.find("Filter") is None

    def test_limit_zero_produces_nothing_and_pulls_nothing(self, db):
        result = db.execute("SELECT id FROM t LIMIT 0")
        assert result.rows == []
        assert result.pipeline.find("SeqScan").stats.rows_out == 0

    def test_limit_larger_than_table(self, db):
        result = db.execute("SELECT id FROM t LIMIT 10000")
        assert len(result.rows) == 500


class TestTopN:
    def test_order_by_limit_uses_bounded_heap(self, db):
        result = db.execute("SELECT id, val FROM t ORDER BY val DESC LIMIT 5")
        topn = result.pipeline.find("TopN")
        assert topn is not None
        assert result.pipeline.find("Sort") is None
        # The heap never held more than n rows while consuming all 500.
        assert topn.max_held == 5

    def test_topn_matches_full_sort(self, db):
        limited = db.execute("SELECT id, val FROM t ORDER BY val DESC, id ASC LIMIT 7")
        full = db.execute("SELECT id, val FROM t ORDER BY val DESC, id ASC")
        assert limited.rows == full.rows[:7]

    def test_topn_is_stable_like_a_full_sort(self, db):
        limited = db.execute("SELECT grp, id FROM t ORDER BY grp LIMIT 10")
        full = db.execute("SELECT grp, id FROM t ORDER BY grp")
        assert limited.rows == full.rows[:10]

    def test_order_by_without_limit_uses_full_sort(self, db):
        result = db.execute("SELECT id, val FROM t ORDER BY val")
        assert result.pipeline.find("Sort") is not None
        assert result.pipeline.find("TopN") is None


class TestResidualFilterExecution:
    def test_index_probe_skips_covered_conjunct(self, db):
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        result = db.execute("SELECT id FROM t WHERE grp = 'g1' AND val > 50")
        scan = result.pipeline.find("IndexScan")
        assert scan is not None
        assert scan.examined == 100              # only the g1 partition
        assert scan.describe().endswith("filter (val > 50)")
        assert result.pipeline.find("Filter") is None
        # Same answer as the sequential plan evaluating the full predicate.
        expected = {(i,) for i in range(1, 501)
                    if i % 5 == 1 and (i * 7) % 101 > 50}
        assert set(result.rows) == expected

    def test_fully_covered_where_needs_no_filter_operator(self, db):
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        result = db.execute("SELECT id FROM t WHERE grp = 'g2'")
        assert result.pipeline.find("Filter") is None
        assert len(result.rows) == 100

    def test_range_scan_excludes_null_values(self, db):
        db.execute("CREATE TABLE n (id INT PRIMARY KEY, v INT)")
        db.execute("CREATE INDEX idx_v ON n (v) USING btree")
        db.executemany("INSERT INTO n VALUES (?, ?)",
                       [(1, 10), (2, None), (3, 30)])
        result = db.execute("SELECT id FROM n WHERE v >= 5")
        assert sorted(result.rows) == [(1,), (3,)]


class TestHashJoin:
    def setup_join(self, db, rows):
        db.execute("CREATE TABLE team (tid INT PRIMARY KEY, city TEXT)")
        if rows:
            db.executemany("INSERT INTO team VALUES (?, ?)", rows)

    def test_inner_join(self, db):
        self.setup_join(db, [(1, "paris"), (2, "lyon")])
        result = db.execute(
            "SELECT t.id, team.city FROM t JOIN team ON t.id = team.tid")
        assert sorted(result.rows) == [(1, "paris"), (2, "lyon")]

    def test_left_join_pads_missing_matches(self, db):
        self.setup_join(db, [(1, "paris")])
        result = db.execute(
            "SELECT t.id, team.city FROM t LEFT JOIN team ON t.id = team.tid "
            "WHERE t.id <= 2 ORDER BY t.id")
        from repro.core.values import NULL
        assert result.rows == [(1, "paris"), (2, NULL)]

    def test_left_join_against_empty_right_table_pads_all_columns(self, db):
        """Regression: the padded NULL columns must come from the catalog
        schema, not from the (absent) first right row."""
        self.setup_join(db, [])
        result = db.execute(
            "SELECT * FROM t LEFT JOIN team ON t.id = team.tid LIMIT 2")
        assert result.columns == ["id", "grp", "val", "team.tid", "team.city"]
        from repro.core.values import NULL
        for row in result.rows:
            assert row[3] is NULL and row[4] is NULL

    def test_left_join_empty_right_columns_usable_in_projection(self, db):
        self.setup_join(db, [])
        result = db.execute(
            "SELECT t.id, team.city FROM t LEFT JOIN team ON t.id = team.tid "
            "WHERE t.id = 1")
        from repro.core.values import NULL
        assert result.rows == [(1, NULL)]


class TestExplain:
    def test_explain_renders_operator_tree(self, db):
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        result = db.execute(
            "EXPLAIN SELECT id FROM t WHERE grp = 'g1' AND val > 50 "
            "ORDER BY val DESC LIMIT 3")
        text = "\n".join(row[0] for row in result.rows)
        # Access path + residual + the operator stack, leaf to root.
        assert "IndexScan(idx_grp grp='g1') on t as t filter (val > 50)" in text
        assert "TopN (n=3, by val DESC)" in text
        assert "Project (id)" in text

    def test_explain_first_line_keeps_access_path_summary(self, db):
        result = db.execute("EXPLAIN SELECT * FROM t WHERE val > 1")
        assert "SeqScan" in result.rows[0][0]

    def test_explain_does_not_execute(self, db):
        db.execute("EXPLAIN SELECT * FROM t")
        assert db.executor.stats.rows_scanned == 0

    def test_explain_analyze_reports_per_operator_rows(self, db):
        result = db.execute("EXPLAIN ANALYZE SELECT id FROM t LIMIT 5")
        text = "\n".join(row[0] for row in result.rows)
        assert "Limit (5) (rows=5)" in text
        assert "SeqScan on t as t (rows=5)" in text

    def test_explain_join_shows_hash_join(self, db):
        db.execute("CREATE TABLE team (tid INT PRIMARY KEY, city TEXT)")
        result = db.execute(
            "EXPLAIN SELECT t.id FROM t JOIN team ON t.id = team.tid")
        text = "\n".join(row[0] for row in result.rows)
        assert "HashJoin" in text


class TestStreamingCursor:
    def test_fetchone_pulls_lazily(self, db):
        conn = repro.connect(engine=db)
        cur = conn.cursor()
        cur.execute("SELECT id FROM t")
        assert cur.fetchone() == (1,)
        scan = db.executor.last_pipeline.find("SeqScan")
        # Only the primed first row crossed the scan, not all 500.
        assert scan.stats.rows_out == 1
        assert cur.fetchone() == (2,)
        assert scan.stats.rows_out == 2
        conn.rollback()

    def test_fetchmany_and_fetchall_drain_the_stream(self, db):
        conn = repro.connect(engine=db)
        cur = conn.cursor()
        cur.execute("SELECT id FROM t")
        first_batch = cur.fetchmany(10)
        assert [row[0] for row in first_batch] == list(range(1, 11))
        rest = cur.fetchall()
        assert len(rest) == 490
        assert cur.fetchone() is None
        conn.rollback()

    def test_cursor_iteration_streams(self, db):
        conn = repro.connect(engine=db)
        cur = conn.cursor()
        seen = []
        for row in cur.execute("SELECT id FROM t"):
            seen.append(row[0])
            if len(seen) == 3:
                break
        assert seen == [1, 2, 3]
        assert db.executor.last_pipeline.find("SeqScan").stats.rows_out == 3
        conn.rollback()

    def test_binding_errors_surface_at_execute_time(self, db):
        from repro.core.errors import BindingError
        conn = repro.connect(engine=db)
        cur = conn.cursor()
        with pytest.raises(BindingError):
            cur.execute("SELECT id FROM t WHERE ghost = 1")
        conn.rollback()

    def test_legacy_execute_still_materializes(self, db):
        result = db.execute("SELECT id FROM t")
        assert len(result.rows) == 500


class TestDMLThroughPipeline:
    def test_update_uses_access_path(self, db):
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        before = db.executor.stats.index_lookups
        count = db.execute("UPDATE t SET val = 0 WHERE grp = 'g3'")
        assert count == 100
        assert db.executor.stats.index_lookups > before

    def test_delete_with_residual_predicate(self, db):
        deleted = db.execute("DELETE FROM t WHERE grp = 'g4' AND id < 50")
        assert deleted == 10
        assert db.row_count("t") == 490


class TestNullRangeBounds:
    """A NULL range bound must not be consumed by the index access path."""

    def setup_indexed(self, db):
        db.execute("CREATE TABLE r (id INT PRIMARY KEY, x INT)")
        db.execute("CREATE INDEX idx_x ON r (x) USING btree")
        db.executemany("INSERT INTO r VALUES (?, ?)", [(i, i) for i in range(1, 6)])

    def test_null_lower_bound_yields_empty_result(self, db):
        self.setup_indexed(db)
        result = db.execute("SELECT id FROM r WHERE x > ? AND x < ?",
                            params=(None, 4))
        assert result.rows == []          # same as the unindexed evaluation

    def test_null_between_bound_yields_empty_result(self, db):
        self.setup_indexed(db)
        result = db.execute("SELECT id FROM r WHERE x BETWEEN ? AND ?",
                            params=(None, 4))
        assert result.rows == []

    def test_null_bound_does_not_feed_destructive_dml(self, db):
        self.setup_indexed(db)
        deleted = db.execute("DELETE FROM r WHERE x > ? AND x < ?",
                             params=(None, 4))
        assert deleted == 0
        assert db.row_count("r") == 5

    def test_non_null_bounds_still_use_the_index(self, db):
        self.setup_indexed(db)
        result = db.execute("SELECT id FROM r WHERE x > 1 AND x < 4")
        assert sorted(result.rows) == [(2,), (3,)]
        assert result.pipeline.find("IndexScan") is not None


class TestStreamIsolation:
    """Partially-fetched streams settle before the transaction ends."""

    def test_commit_materializes_pending_stream_rows(self, db):
        conn = repro.connect(engine=db)
        cur = conn.cursor()
        cur.execute("SELECT id FROM t WHERE id <= 10")
        assert cur.fetchone() == (1,)
        conn.commit()                      # read locks released here
        # A writer mutates the scanned table after the commit...
        writer = repro.connect(engine=db)
        writer.execute("DELETE FROM t WHERE id <= 10")
        # ...but the cursor's remaining rows reflect its own snapshot.
        rest = cur.fetchall()
        assert [row[0] for row in rest] == list(range(2, 11))
        writer.rollback()
        conn.close()

    def test_rollback_also_settles_streams(self, db):
        conn = repro.connect(engine=db)
        cur = conn.cursor()
        cur.execute("SELECT id FROM t WHERE id <= 5")
        conn.rollback()
        assert len(cur.fetchall()) == 5
        conn.close()


class TestExplainAnalyzeLocking:
    def test_explain_analyze_blocks_on_a_concurrent_writer(self, db):
        from repro.core.errors import TransactionAborted
        writer = db.begin()
        db.execute("UPDATE t SET val = 99 WHERE id = 1", txn=writer)
        with pytest.raises(TransactionAborted):
            db.execute("EXPLAIN ANALYZE SELECT id FROM t LIMIT 1")
        db.rollback(writer)

    def test_plain_explain_needs_no_locks(self, db):
        writer = db.begin()
        db.execute("UPDATE t SET val = 99 WHERE id = 1", txn=writer)
        result = db.execute("EXPLAIN SELECT id FROM t")
        assert "SeqScan" in result.rows[0][0]
        db.rollback(writer)
