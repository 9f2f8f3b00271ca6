"""Table statistics: incremental maintenance, estimates, plan flips, recovery.

The statistics subsystem (:mod:`repro.query.statistics`) is maintained at the
same engine sites as secondary indexes — insert, degradation step, stable
update, removal — and feeds the planner's cost-based access-path choice.
These tests cover its whole life cycle: maintenance under insert/degrade/
remove waves, estimate accuracy against actual cardinalities, plans flipping
between index and sequential scans as stats cross the cost threshold, and
exact survival of statistics through checkpoint + crash recovery.
"""

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.core.values import NULL, REMOVED, SUPPRESSED
from repro.query.statistics import ColumnStatistics, StatisticsRegistry

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"
TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]


def build_db(data_dir=None):
    db = InstantDB(data_dir=None if data_dir is None else str(data_dir))
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, transitions=TRANSITIONS,
                                    name="location_lcp"))
    db.execute("CREATE TABLE trace (id INT PRIMARY KEY, kind TEXT, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp)")
    return db


class TestColumnStatistics:
    def test_add_remove_tracks_ndv_and_extremes(self):
        stats = ColumnStatistics()
        for value in (5, 1, 9, 1):
            stats.add_many([value])
        assert stats.ndv == 3
        assert stats.non_missing == 4
        assert stats.min_value == 1.0 and stats.max_value == 9.0
        stats.remove_many([9])
        assert stats.max_value == 5.0          # extreme rescans lazily
        stats.remove_many([1])
        assert stats.ndv == 2                  # one '1' remains
        assert stats.min_value == 1.0

    @pytest.mark.parametrize("values", [
        [5, 1, 9, 1, 1.0, True], ["Paris", "paris", "Lyon"], [None, 3, NULL, SUPPRESSED, REMOVED]])
    def test_a_row_alone_leaves_as_in_a_batch(self, values):
        """``remove_many`` of one value (no ``Counter``, no type survey)
        leaves the state the batch path leaves, missing values included."""
        alone, batched = ColumnStatistics(), ColumnStatistics()
        for stats in (alone, batched):
            stats.add_many(values + values[:2])
        for value in values:
            alone.remove_many([value])
        batched.remove_many(values)
        state = [(stats.counts, stats.non_missing, stats.missing, stats.min_value,
                  stats.max_value) for stats in (alone, batched)]
        assert state[0] == state[1] and alone.counts

    def test_missing_values_are_counted_separately(self):
        stats = ColumnStatistics()
        stats.add_many([None])
        stats.add_many([3])
        assert stats.missing == 1
        assert stats.non_missing == 1
        assert stats.eq_rows(None) == 0.0

    def test_equality_matches_executor_semantics(self):
        stats = ColumnStatistics()
        stats.add_many(["Paris"])
        stats.add_many([10])
        assert stats.eq_rows("PARIS") == 1.0   # case-insensitive like '='
        assert stats.eq_rows(10.0) == 1.0      # numeric cross-type like '='

    def test_range_fraction_is_exact_at_small_ndv(self):
        stats = ColumnStatistics()
        for value in range(100):
            stats.add_many([value])
        assert stats.range_fraction(low=10, high=19) == pytest.approx(0.10)
        assert stats.range_fraction(low=10, high=19,
                                    include_high=False) == pytest.approx(0.09)


class TestIncrementalMaintenance:
    def test_insert_degrade_remove_wave(self):
        db = build_db()
        db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                       [(i, f"kind-{i % 4}", PARIS if i % 2 else LYON)
                        for i in range(1, 101)])
        stats = db.statistics.table("trace")
        assert stats.row_count == 100
        assert stats.ndv("kind") == 4
        assert stats.ndv("location") == 2
        # One degradation wave: every address becomes its city, so the
        # location frequency map collapses onto the two city values.
        db.advance_time(hours=2)
        assert stats.row_count == 100
        assert stats.ndv("location") == 2
        assert stats.estimated_eq_rows("location", "Paris") == 50
        assert stats.estimated_eq_rows("location", PARIS) == 0.5  # gone
        # Deletes shrink the counts through the same hooks (a purpose is
        # needed so the degraded rows are visible to the predicate at all).
        db.execute("DECLARE PURPOSE wipe SET ACCURACY LEVEL city "
                   "FOR trace.location")
        db.execute("DELETE FROM trace WHERE kind = 'kind-0'", purpose="wipe")
        assert stats.row_count == 75
        assert stats.ndv("kind") == 3

    def test_final_removal_wave_empties_the_stats(self):
        db = build_db()
        db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                       [(i, "k", PARIS) for i in range(1, 21)])
        stats = db.statistics.table("trace")
        db.advance_time(days=200)              # whole life cycle: tuples gone
        assert db.row_count("trace") == 0
        assert stats.row_count == 0
        assert stats.ndv("location") == 0

    def test_departed_values_leave_every_attribute(self):
        """Derived state holds current values only (docs/invariants.md): once
        a wave moved the last row off a value, or removed the row, no slot of
        the column's statistics holds it — cached extremes included, read or
        not."""
        def held(column):
            return repr([getattr(column, slot)
                         for slot in ColumnStatistics.__slots__]).lower()

        db = build_db()
        db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                       [(1, "k", PARIS), (2, "k", LYON)])
        location = db.statistics.table("trace").columns["location"]
        assert PARIS.lower() in held(location)
        db.advance_time(hours=2)               # address -> city
        assert PARIS.lower() not in held(location)
        assert LYON.lower() not in held(location)
        assert (location.min_value, location.max_value) == ("lyon", "paris")
        db.advance_time(days=200)              # whole life cycle: tuples gone
        assert db.row_count("trace") == 0
        for departed in ("paris", "lyon", "france"):
            assert departed not in held(location)
        assert location.min_value is None and location.max_value is None

    def test_stable_update_moves_counts(self):
        db = build_db()
        db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                       [(i, "old", PARIS) for i in range(1, 11)])
        db.execute("UPDATE trace SET kind = 'new' WHERE id <= 4")
        stats = db.statistics.table("trace")
        assert stats.estimated_eq_rows("kind", "new") == 4
        assert stats.estimated_eq_rows("kind", "old") == 6

    def test_drop_table_clears_statistics(self):
        db = build_db()
        db.execute("INSERT INTO trace VALUES (1, 'k', 'x')")
        assert db.statistics.table("trace") is not None
        db.execute("DROP TABLE trace")
        assert db.statistics.table("trace") is None


class TestEstimatesVsActuals:
    def test_equality_estimate_is_exact(self):
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, f"g{i % 5}") for i in range(1, 201)])
        stats = db.statistics.table("t")
        actual = len(db.execute("SELECT id FROM t WHERE grp = 'g1'").rows)
        assert stats.estimated_eq_rows("grp", "g1") == actual == 40

    def test_range_estimate_is_exact_at_small_ndv(self):
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, score INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, i % 100) for i in range(1, 201)])
        stats = db.statistics.table("t")
        actual = len(db.execute(
            "SELECT id FROM t WHERE score >= 10 AND score < 20").rows)
        estimate = stats.estimated_range_rows("score", low=10, high=20,
                                              include_high=False)
        assert estimate == actual == 20

    def test_explain_shows_estimated_and_actual_rows(self):
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, f"g{i % 5}") for i in range(1, 201)])
        plain = "\n".join(r[0] for r in db.execute(
            "EXPLAIN SELECT id FROM t WHERE grp = 'g1'").rows)
        assert "est~" in plain
        analyzed = "\n".join(r[0] for r in db.execute(
            "EXPLAIN ANALYZE SELECT id FROM t WHERE grp = 'g1'").rows)
        assert "(rows=40)" in analyzed and "est~40" in analyzed


class TestPlanFlips:
    def build_skewed(self, hot_rows=150, rare_rows=50):
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT)")
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        rows = [(i, "hot") for i in range(1, hot_rows + 1)]
        rows += [(hot_rows + i, f"rare-{i}") for i in range(1, rare_rows + 1)]
        db.executemany("INSERT INTO t VALUES (?, ?)", rows)
        return db

    def explain(self, db, sql):
        return "\n".join(r[0] for r in db.execute(f"EXPLAIN {sql}").rows)

    def test_selective_value_uses_the_index(self):
        db = self.build_skewed()
        text = self.explain(db, "SELECT id FROM t WHERE grp = 'rare-7'")
        assert "IndexScan" in text

    def test_dominant_value_flips_to_seq_scan(self):
        db = self.build_skewed()
        text = self.explain(db, "SELECT id FROM t WHERE grp = 'hot'")
        assert "SeqScan" in text
        assert "IndexScan" not in text

    def test_flip_happens_when_stats_cross_the_threshold(self):
        """The same query plans differently as inserts shift the frequency."""
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT)")
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, f"g{i}") for i in range(1, 101)])   # all distinct
        sql = "SELECT id FROM t WHERE grp = 'g1'"
        assert "IndexScan" in self.explain(db, sql)
        # Flood the table with the probed value until it dominates.
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, "g1") for i in range(101, 401)])
        assert "SeqScan" in self.explain(db, sql)

    def test_tiny_tables_keep_the_index_preference(self):
        """Below the small-table threshold estimates are noise; the
        historical index preference is kept."""
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT)")
        db.execute("CREATE INDEX idx_grp ON t (grp) USING hash")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, "same") for i in range(1, 11)])
        assert "IndexScan" in self.explain(db,
                                           "SELECT id FROM t WHERE grp = 'same'")


class TestStatsSurviveRecovery:
    def test_checkpoint_close_reopen_recover_rebuilds_exactly(self, tmp_path):
        db = build_db(tmp_path)
        db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                       [(i, f"kind-{i % 3}", PARIS if i % 2 else LYON)
                        for i in range(1, 61)])
        db.advance_time(hours=2)               # mixed accuracy levels on disk
        before = db.statistics.table("trace")
        before_snapshot = (before.row_count, before.ndv("kind"),
                           before.ndv("location"),
                           before.estimated_eq_rows("location", "Paris"))
        db.close()

        db2 = build_db(tmp_path)
        db2.recover(drain=False)
        after = db2.statistics.table("trace")
        assert (after.row_count, after.ndv("kind"), after.ndv("location"),
                after.estimated_eq_rows("location", "Paris")) == before_snapshot

    def test_crash_without_checkpoint_still_rebuilds_from_recovered_rows(self, tmp_path):
        db = build_db(tmp_path)
        db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                       [(i, "k", PARIS) for i in range(1, 21)])
        db.daemon.pause()                      # crash: no close, no checkpoint

        db2 = build_db(tmp_path)
        db2.recover(drain=False)
        stats = db2.statistics.table("trace")
        assert stats.row_count == db2.row_count("trace") == 20
        assert stats.estimated_eq_rows("location", PARIS) == 20


class TestRegistry:
    def test_hooks_ignore_unregistered_tables(self):
        registry = StatisticsRegistry()
        registry.on_insert("ghost", {"a": [1]}, 1)
        registry.on_remove("ghost", {"a": [1]}, 1)
        registry.on_value_changes("ghost", "a", [(1, 2, 1)])
        assert registry.table("ghost") is None


class TestTransitionCounts:
    """A wave reports ``count`` rows per value transition; that must leave
    the statistics — and the plan-cache epoch — where ``count`` single
    transitions leave them."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_counted_transitions_equal_single_ones(self, seed):
        import random
        from repro.core.schema import Column, TableSchema
        from repro.core.values import NULL, SUPPRESSED
        from repro.query.statistics import TableStatistics

        rng = random.Random(seed)
        schema = TableSchema("t", [Column("id", "INT", primary_key=True),
                                   Column("v", "TEXT")])
        counted, single = TableStatistics(schema), TableStatistics(schema)
        values = ["a", "b", "c", "d", NULL, SUPPRESSED]
        held = []
        for row_id in range(rng.randrange(50, 600)):
            held.append(rng.choice(values))
            for stats in (counted, single):
                stats.on_insert({"id": [row_id], "v": [held[-1]]}, 1)
        for _ in range(60):
            if rng.random() < 0.2 and held:          # the threshold moves with the rows
                gone = held.pop(rng.randrange(len(held)))
                for stats in (counted, single):
                    stats.on_remove({"id": [0], "v": [gone]}, 1)
                continue
            old, new = rng.choice(values), rng.choice(values)
            movers = [i for i, value in enumerate(held) if value is old or value == old]
            movers = movers[:rng.randrange(0, len(movers) + 1)]
            if not movers:
                continue
            for i in movers:
                held[i] = new
                single.on_value_changes("v", [(old, new, 1)])
            counted.on_value_changes("v", [(old, new, len(movers))])
            for stats in (counted, single):
                assert stats.epoch == single.epoch
                assert stats._mods_since_epoch == single._mods_since_epoch
            a, b = counted.columns["v"], single.columns["v"]
            assert (a.counts, a.non_missing, a.missing, a.min_value, a.max_value) == \
                (b.counts, b.non_missing, b.missing, b.min_value, b.max_value)


class TestHistograms:
    """Equi-width histograms take over range estimation past the exact-NDV
    limit, where uniform min/max interpolation is badly wrong for skew."""

    def build_skewed(self):
        # 90% of values cluster near zero; a sparse tail stretches to 50M.
        stats = ColumnStatistics()
        for value in range(4500):
            stats.add_many([value])
        for j in range(1, 501):
            stats.add_many([100_000 * j])
        assert stats.ndv > 4096                # past EXACT_RANGE_NDV_LIMIT
        return stats

    def test_histogram_beats_uniform_interpolation_on_skew(self):
        stats = self.build_skewed()
        lo, hi = 0, 781_250                    # first of 64 equi-width buckets
        truth = (4500 + 7) / 5000              # cluster + tail values <= hi
        estimate = stats.range_fraction(low=lo, high=hi)
        uniform = (hi - lo) / (stats.max_value - stats.min_value)
        assert abs(estimate - truth) < 0.05
        assert abs(uniform - truth) > 0.5      # what the old estimator said

    def test_tail_range_not_overestimated(self):
        stats = self.build_skewed()
        estimate = stats.range_fraction(low=40_000_000, high=50_000_000)
        truth = 101 / 5000                     # tail only
        assert abs(estimate - truth) < 0.05

    def test_histogram_cache_invalidated_by_mutation(self):
        stats = self.build_skewed()
        stats.range_fraction(low=0, high=1000)
        assert stats._hist is not None
        stats.add_many([123_456_789])
        assert stats._hist is None             # rebuilt on next estimate
        stats.range_fraction(low=0, high=1000)
        assert stats._hist is not None
        stats.remove_many([123_456_789])
        assert stats._hist is None

    def test_non_numeric_columns_skip_the_histogram(self):
        stats = ColumnStatistics()
        for i in range(5000):
            stats.add_many([f"v{i}"])
        assert stats.range_fraction(low="a", high="z") > 0.0
        assert stats._hist in (None, ())

    def test_explain_estimate_tracks_skew(self):
        """End to end: est~ on a skewed wide-NDV range predicate lands within
        2x of the actual cardinality (uniform interpolation was ~60x off)."""
        import re
        db = InstantDB()
        db.execute("CREATE TABLE skew (id INT PRIMARY KEY, v INT)")
        rows = [(i + 1, i) for i in range(4500)]
        rows += [(4500 + j, 100_000 * j) for j in range(1, 501)]
        db.executemany("INSERT INTO skew VALUES (?, ?)", rows)
        sql = "SELECT id FROM skew WHERE v BETWEEN 0 AND 781250"
        actual = len(db.execute(sql).rows)
        text = "\n".join(r[0] for r in db.execute(f"EXPLAIN {sql}").rows)
        estimates = [int(n) for n in re.findall(r"est~(\d+)", text)]
        assert estimates, text
        estimate = min(estimates)              # the filtered cardinality
        assert actual / 2 <= estimate <= actual * 2, (estimate, actual)
