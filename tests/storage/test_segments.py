"""Unit tests for the columnar segment layer (``storage/segment.py``).

The :class:`SegmentSet` is a derived acceleration structure: these tests pin
down the invariants the read path and the columnar degradation path rely on —
O(1) hook maintenance, replace-on-reinsert, zone-map soundness (bounds only
widen; missing values never enter min/max), sentinel identity in the value
vectors, and rebuild-from-heap equivalence.
"""

from repro import InstantDB
from repro.core.values import NULL, SUPPRESSED, sort_key
from repro.storage.segment import SEGMENT_ROWS, SegmentSet, ZoneMap


def make_store(rows=0):
    db = InstantDB()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT)")
    if rows:
        db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                       [(i, f"g{i % 3}", i * 10) for i in range(1, rows + 1)])
    return db, db.table_store("t")


class TestZoneMap:
    def test_observe_tracks_min_max(self):
        zone = ZoneMap()
        for value in (5, 1, 9, 3):
            zone.observe(value)
        assert zone.low_value == 1 and zone.high_value == 9
        assert zone.may_match_eq(sort_key(4))
        assert not zone.may_match_eq(sort_key(10))

    def test_missing_values_do_not_widen_bounds(self):
        zone = ZoneMap()
        zone.observe(7)
        zone.observe(NULL)
        zone.observe(SUPPRESSED)
        assert zone.missing == 2
        assert zone.low_value == zone.high_value == 7

    def test_all_missing_segment_never_matches(self):
        zone = ZoneMap()
        zone.observe(NULL)
        assert not zone.may_match_eq(sort_key(1))
        assert not zone.may_match_range(None, None, True, True)

    def test_range_overlap_and_exclusive_edges(self):
        zone = ZoneMap()
        zone.observe(10)
        zone.observe(20)
        key = sort_key
        assert zone.may_match_range(key(15), key(25), True, True)
        assert zone.may_match_range(key(20), None, True, True)
        assert not zone.may_match_range(key(20), None, False, True)
        assert not zone.may_match_range(None, key(10), True, False)
        assert not zone.may_match_range(key(21), key(30), True, True)


class TestSegmentSetHooks:
    def test_store_mirror_tracks_every_mutation(self):
        db, store = make_store(rows=5)
        segments = store.columnarize()
        assert len(segments) == 5
        db.execute("INSERT INTO t VALUES (6, 'g0', 60)")
        db.execute("UPDATE t SET val = 999 WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 3")
        assert len(segments) == 5                     # 6 inserted, 3 removed
        segment, position = segments.locate(2)
        assert segment.values["val"][position] == 999
        assert segments.locate(3) is None
        assert segments.stats.inserts >= 6
        assert segments.stats.value_changes >= 1
        assert segments.stats.removes >= 1

    def test_reinsert_replaces_the_old_slot(self):
        _db, store = make_store(rows=3)
        segments = store.columnarize()
        segments.on_insert(2, 0.0, {"id": 2, "grp": "new", "val": -1}, {})
        segment, position = segments.locate(2)
        assert segment.values["grp"][position] == "new"
        # Exactly one live slot for row 2 across all segments.
        live = [s.row_keys[i] for s in segments.segments
                for i in s.live_positions()]
        assert live.count(2) == 1

    def test_segments_roll_over_at_capacity(self):
        _db, store = make_store()
        segments = store.columnarize()
        for i in range(SEGMENT_ROWS + 10):
            segments.on_insert(i, 0.0, {"id": i, "grp": "g", "val": i}, {})
        assert len(segments.segments) == 2
        assert len(segments.segments[0]) == SEGMENT_ROWS
        assert len(segments.segments[1]) == 10

    def test_dead_slots_drop_out_of_live_positions(self):
        _db, store = make_store(rows=4)
        segments = store.columnarize()
        segments.on_remove(1)
        segments.on_remove(4)
        segment = segments.segments[0]
        assert segment.live_count == 2
        assert [segment.row_keys[i] for i in segment.live_positions()] == [2, 3]


class TestSentinelsAndLevels:
    def test_sentinels_round_trip_by_identity(self):
        _db, store = make_store(rows=1)
        segments = store.columnarize()
        segments.on_value_change(1, "grp", SUPPRESSED)
        segment, position = segments.locate(1)
        assert segment.values["grp"][position] is SUPPRESSED
        segments.on_value_change(1, "grp", NULL)
        assert segment.values["grp"][position] is NULL

    def test_level_vector_exists_only_for_degradable_columns(self):
        db = InstantDB()
        from repro import AttributeLCP
        from repro.core.domains import build_location_tree
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(
            location, transitions=["1 h", "1 d", "1 month", "3 months"],
            name="lcp"))
        db.execute("CREATE TABLE v (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY lcp)")
        db.execute("INSERT INTO v VALUES (1, '1 Main Street, Paris')")
        segments = db.table_store("v").columnarize()
        segment, position = segments.locate(1)
        assert set(segment.levels) == {"location"}
        assert segment.levels["location"][position] == 0
        segments.on_value_change(1, "location", "Paris", level=1)
        assert segment.levels["location"][position] == 1
        assert segment.values["location"][position] == "Paris"


class TestRebuild:
    def test_rebuild_matches_incremental_maintenance(self):
        db, store = make_store(rows=50)
        maintained = store.columnarize()
        db.execute("DELETE FROM t WHERE id <= 10")
        db.execute("UPDATE t SET grp = 'z' WHERE id > 40")
        fresh = SegmentSet(store.schema)
        fresh.rebuild(store.scan())
        def visible(segments):
            return sorted(
                (s.row_keys[i], s.values["grp"][i], s.values["val"][i])
                for s in segments.segments for i in s.live_positions())
        assert visible(fresh) == visible(maintained)
        assert fresh.stats.rebuilds == 1

    def test_rebuild_tightens_zone_maps(self):
        _db, store = make_store(rows=20)
        segments = store.columnarize()
        # Narrowing update leaves stale (wide) bounds...
        segments.on_value_change(20, "val", 5)
        assert segments.segments[0].zones["val"].high_value == 200
        # ...while a rebuild recomputes them from live values only.
        segments.rebuild(store.scan())
        assert segments.segments[0].zones["val"].high_value == 200  # heap truth
        _db.execute("UPDATE t SET val = 5 WHERE id = 20")
        segments.rebuild(store.scan())
        assert segments.segments[0].zones["val"].high_value == 190
