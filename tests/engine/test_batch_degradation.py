"""The batch degradation pipeline: grouped drains, coalesced I/O, the
levels the policy prescribes, and the retry / event paths around it."""

import math

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.clock import DAY
from repro.core.domains import build_location_tree
from repro.privacy.forensic import scan_engine
from repro.storage.wal import LogRecordType

from ..conftest import build_engine

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"
ENSCHEDE = "3 Church Lane, Enschede"
ADDRESSES = [PARIS, LYON, ENSCHEDE]


def build_trace_engine(strategy: str = "rewrite", transitions=None,
                       tables=("trace",)) -> InstantDB:
    """Engine whose tables share a location-only policy (fully controllable
    waves)."""
    db = InstantDB(strategy=strategy)
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=transitions or ["1 hour", "1 day", "1 month", "3 months"],
        name="location_lcp"))
    for table in tables:
        db.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
    return db


def insert_wave(db: InstantDB, count: int, table: str = "trace") -> None:
    db.executemany(f"INSERT INTO {table} VALUES (?, ?)",
                   [(i, ADDRESSES[i % len(ADDRESSES)]) for i in range(1, count + 1)])


class TestBatchedWave:
    def test_one_wal_flush_per_batch(self):
        db = build_trace_engine()
        insert_wave(db, 25)
        flushed = db.wal.stats.flushed
        db.advance_time(hours=2)          # 25 steps due in one wave
        assert db.stats.degradation_steps_applied == 25
        assert db.wal.stats.flushed - flushed == 1
        assert db.level_histogram("trace", "location") == {1: 25}

    def test_dirty_pages_flushed_at_most_once_per_batch(self):
        db = build_trace_engine()
        insert_wave(db, 60)
        flushes = db.buffer_pool.stats.flushes
        db.advance_time(hours=2)
        heap_pages = db.table_store("trace").heap.page_count
        assert db.buffer_pool.stats.flushes - flushes <= heap_pages

    def test_single_scrub_pass_per_batch(self):
        db = build_trace_engine()
        insert_wave(db, 20)
        passes = db.wal.stats.scrub_passes
        db.advance_time(hours=2)
        assert db.wal.stats.scrub_passes - passes == 1

    def test_one_system_txn_per_batch(self):
        db = build_trace_engine()
        insert_wave(db, 30)
        system = db.transactions.stats.system_begun
        db.advance_time(hours=2)
        assert db.transactions.stats.system_begun - system == 1

    def test_a_deep_backlog_drains_one_txn_per_table_and_round(self):
        # Two tables, two cohorts each, three steps overdue at once: every
        # catch-up round hands each table its cohorts whole, in one system
        # transaction, and no round adds a cohort.
        db = build_trace_engine(tables=("trace", "other"))
        for table in ("trace", "other"):
            insert_wave(db, 12, table)
        db.advance_time(seconds=1)
        db.execute(f"INSERT INTO trace VALUES (99, '{LYON}')")
        db.execute(f"INSERT INTO other VALUES (99, '{LYON}')")
        assert len(db.scheduler.cohorts()) == 4
        calls = []
        apply = db.daemon.applier

        def spy(table, steps):
            calls.append((table, [len(step) for step in steps], len(db.scheduler.cohorts())))
            return apply(table, steps)

        db.daemon.applier = spy
        system = db.transactions.stats.system_begun
        flushed = db.wal.stats.flushed
        db.daemon.pause()
        db.advance_time(days=40)          # 1 hour, 1 day and 1 month overdue
        db.daemon.resume()
        db.daemon.run_pending()
        assert calls == [("trace", [12, 1], 4), ("other", [12, 1], 4)] * 3
        assert db.transactions.stats.system_begun - system == 6
        assert db.wal.stats.flushed - flushed == 6
        assert len(db.scheduler.cohorts()) == 4
        assert db.level_histogram("trace", "location") == {3: 13}
        db.advance_time(days=100)         # the last step: the rows go final
        assert db.scheduler.cohorts() == [] and db.row_count("trace") == 0

    def test_a_deleted_member_leaves_the_rest_of_its_cohort_whole(self):
        db = build_trace_engine()
        insert_wave(db, 9)
        db.advance_time(hours=2)
        db.execute("DECLARE PURPOSE c SET ACCURACY LEVEL city FOR trace.location")
        assert db.execute("DELETE FROM trace WHERE id = 4", purpose="c") == 1
        ((members, states, _queued),) = db.scheduler.cohorts()
        assert len(members) == 8 and states == {"location": 1}
        calls = []
        apply = db.daemon.applier

        def spy(table, steps):
            calls.append((table, [len(step) for step in steps]))
            return apply(table, steps)

        db.daemon.applier = spy
        db.advance_time(days=1)
        assert calls == [("trace", [8])]
        assert len(db.scheduler.cohorts()) == 1
        assert db.level_histogram("trace", "location") == {2: 8}

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_batch_wave_not_forensically_recoverable(self, strategy):
        db = build_trace_engine(strategy=strategy)
        insert_wave(db, 12)
        db.advance_time(hours=2)
        report = scan_engine(db, ADDRESSES, table="trace")
        assert report.clean, report.summary()

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_wave_reaches_the_levels_the_policy_prescribes(self, strategy):
        db = build_trace_engine(strategy=strategy)
        inserted_at = db.now()
        insert_wave(db, 15)
        db.advance_time(days=2)           # two steps: city, then region
        tuple_lcp = db.catalog.table("trace").policy.tuple_lcp(None)
        levels = tuple_lcp.levels_at(2 * DAY)
        assert levels == {"location": 2}
        assert db.level_histogram("trace", "location") == {levels["location"]: 15}
        db.execute("DECLARE PURPOSE r SET ACCURACY LEVEL region FOR trace.location")
        scheme = tuple_lcp.attributes["location"].scheme
        assert db.execute("SELECT id, location FROM trace", purpose="r").rows == [
            (i, scheme.generalize(ADDRESSES[i % len(ADDRESSES)], 2)) for i in range(1, 16)]
        assert db.scheduler.overdue_count(math.inf) == 15
        offset, _state = tuple_lcp.attributes["location"].next_transition(2 * DAY)
        assert db.scheduler.peek_next_due() == inserted_at + offset
        assert db.stats.degradation_steps_applied == 30

    def test_gt_index_maintained_in_bulk(self):
        db = build_trace_engine()
        db.create_index("idx_location", "trace", "location", method="gt")
        insert_wave(db, 21)
        db.advance_time(hours=2)
        index = db.catalog.table("trace").indexes["idx_location"].index
        index.verify()
        assert index.level_histogram()[1] == 21
        db.execute("DECLARE PURPOSE c SET ACCURACY LEVEL city FOR trace.location")
        result = db.execute("SELECT id FROM trace WHERE location = 'Paris'", purpose="c")
        assert len(result) == 7           # every third row is the Paris address

    def test_mass_completion_removes_in_bulk(self):
        db = build_trace_engine()
        insert_wave(db, 18)
        db.advance_time(days=600)         # full life cycle in one catch-up drain
        assert db.row_count("trace") == 0
        assert db.stats.rows_removed_by_policy == 18
        report = scan_engine(db, ADDRESSES + ["Paris", "Lyon", "France"])
        assert report.clean, report.summary()

    def test_final_removals_share_the_batch_transaction(self):
        # A single-transition policy: the wave's only step is also the final
        # one, so the removals must fold into the same system transaction as
        # the DEGRADE records — one txn, one commit flush for the whole wave.
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location, states=[0, 4],
                                        transitions=["1 hour"],
                                        name="location_lcp"))
        db.execute("CREATE TABLE trace (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        insert_wave(db, 10)
        system = db.transactions.stats.system_begun
        flushed = db.wal.stats.flushed
        db.advance_time(hours=2)
        assert db.row_count("trace") == 0
        assert db.stats.rows_removed_by_policy == 10
        assert db.transactions.stats.system_begun - system == 1
        assert db.wal.stats.flushed - flushed == 1
        removes = [record for record in db.wal.records()
                   if record.record_type is LogRecordType.REMOVE]
        assert len(removes) == 10
        assert {record.txn_id for record in removes} != {0}
        assert len({record.txn_id for record in removes}) == 1

    def test_partial_policy_batch_keeps_degraded_rows(self):
        # remove_on_final only fires for fully-suppressing life cycles; a
        # partial policy's final batch must leave the degraded tuples behind.
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location, states=[0, 2],
                                        transitions=["1 hour"],
                                        name="location_lcp"))
        db.execute("CREATE TABLE trace (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        insert_wave(db, 6)
        db.advance_time(hours=2)
        assert db.row_count("trace") == 6
        assert db.stats.rows_removed_by_policy == 0


class TestLockConflictDeferral:
    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    def test_conflicting_batch_defers_and_retries(self, strategy):
        db = build_trace_engine(strategy=strategy)
        insert_wave(db, 8)
        reader = db.begin()
        db.execute("SELECT * FROM trace", txn=reader)
        db.advance_time(hours=2)
        # The reader's shared lock defers the whole wave; nothing is lost.
        assert db.stats.degradation_conflicts >= 1
        assert db.stats.degradation_steps_applied == 0
        assert db.daemon.backlog() == 0   # deferred steps are re-queued, not overdue
        db.commit(reader)
        db.advance_time(seconds=2)        # past the conflict back-off
        assert db.stats.degradation_steps_applied == 8
        assert db.level_histogram("trace", "location") == {1: 8}

    def test_deferred_steps_keep_original_lag_base(self):
        db = build_trace_engine()
        insert_wave(db, 3)
        reader = db.begin()
        db.execute("SELECT * FROM trace", txn=reader)
        db.advance_time(hours=2)
        db.commit(reader)
        db.advance_time(seconds=2)
        # Lag is measured against the original due time (1 h), not the retry.
        assert db.scheduler.stats.max_lag >= 3600.0


class TestEventInterleaving:
    def test_event_then_timed_steps_through_engine(self):
        """A timed step that follows an event transition fires relative to the
        event — interleaved with other purely timed records."""
        db = build_trace_engine(
            transitions=[{"event": "case_closed"}, "1 day", "1 month", "3 months"])
        db.execute(f"INSERT INTO trace VALUES (1, '{PARIS}')")
        db.advance_time(days=30)          # no event yet: still fully accurate
        assert db.level_histogram("trace", "location") == {0: 1}
        db.fire_event("case_closed")      # address -> city immediately
        assert db.level_histogram("trace", "location") == {1: 1}
        db.advance_time(days=1, seconds=1)   # city -> region, 1 day after the event
        assert db.level_histogram("trace", "location") == {2: 1}

    def test_timed_and_event_records_interleave_in_one_drain(self):
        db = InstantDB()
        location = db.register_domain(build_location_tree())
        db.register_policy(AttributeLCP(location, transitions=["1 hour", "1 day",
                                                               "1 month", "3 months"],
                                        name="timed_lcp"))
        db.register_policy(AttributeLCP(location, states=[0, 1, 4],
                                        transitions=[{"event": "released"}, "1 day"],
                                        name="event_lcp"))
        db.execute("CREATE TABLE timed (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY timed_lcp)")
        db.execute("CREATE TABLE held (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY event_lcp)")
        db.execute(f"INSERT INTO timed VALUES (1, '{PARIS}')")
        db.execute(f"INSERT INTO held VALUES (1, '{LYON}')")
        db.fire_event("released")         # held: address -> city at t=0
        db.advance_time(days=2)
        # One drain applied steps of both tables: timed went two steps, and the
        # held record's post-event timed step (1 day after the event) fired too,
        # completing its fully-suppressing life cycle — the row is removed.
        assert db.level_histogram("timed", "location") == {2: 1}
        assert db.row_count("held") == 0
        assert db.stats.rows_removed_by_policy == 1
        assert db.scheduler.stats.records_completed == 1

    def test_an_event_releases_each_cohort_whole_in_one_batch(self):
        db = build_trace_engine(
            transitions=[{"event": "go"}, "1 day", "1 month", "3 months"])
        insert_wave(db, 5)
        db.advance_time(seconds=1)
        db.execute(f"INSERT INTO trace VALUES (99, '{LYON}')")
        assert len(db.scheduler.cohorts()) == 2
        calls = []
        apply = db.daemon.applier

        def spy(table, steps):
            calls.append((table, [len(step) for step in steps]))
            return apply(table, steps)

        db.daemon.applier = spy
        db.fire_event("go")
        assert calls == [("trace", [5, 1])]
        assert len(db.scheduler.cohorts()) == 2
        assert db.level_histogram("trace", "location") == {1: 6}

    def test_cancelled_record_ignores_later_event(self):
        db = build_trace_engine(
            transitions=[{"event": "go"}, "1 day", "1 month", "3 months"])
        db.execute(f"INSERT INTO trace VALUES (1, '{PARIS}')")
        db.execute("DELETE FROM trace WHERE id = 1")
        assert db.fire_event("go") == []
        assert db.scheduler.registered_count() == 0


class TestBacklogReporting:
    def test_backlog_counts_overdue_steps_publicly(self):
        db = build_trace_engine()
        insert_wave(db, 9)
        db.daemon.pause()
        db.advance_time(hours=2)
        assert db.daemon.backlog() == 9
        assert db.scheduler.overdue_count(db.now()) == 9
        db.daemon.resume()
        db.daemon.run_pending()
        assert db.daemon.backlog() == 0

    def test_backlog_zero_when_nothing_due(self):
        db = build_trace_engine()
        insert_wave(db, 3)
        assert db.daemon.backlog() == 0
