"""Crash recovery of the degradation schedule (the durable due-queue).

The paper's promise is *timely* degradation regardless of what happens to the
process.  These tests kill the engine at every awkward moment — mid-wave
between the WAL flush and the step application, while a deferral is pending,
between an event firing and its released steps — reopen the database
directory, run :meth:`InstantDB.recover`, and assert that every overdue step
fires **exactly once**: no step is lost, no tuple is degraded twice.
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.clock import DAY, HOUR
from repro.core.domains import build_location_tree
from repro.storage.wal import LogRecordType

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"

#: Fig. 2 cadence: address -1h-> city -1d-> region -1mo-> country -3mo-> gone.
TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]

#: Same automaton but the first transition waits for a named event.
EVENT_TRANSITIONS = [{"event": "consent_revoked"}, "1 day", "1 month", "3 months"]


def build_trace_db(data_dir, transitions=TRANSITIONS, **kwargs) -> InstantDB:
    """A single-table engine over ``data_dir`` (reopening re-runs the DDL)."""
    db = InstantDB(data_dir=str(data_dir), **kwargs)
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, transitions=transitions,
                                    name="location_lcp"))
    db.execute("CREATE TABLE trace (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp)")
    return db


def insert_wave(db: InstantDB, count: int, address: str = PARIS) -> None:
    db.executemany("INSERT INTO trace VALUES (?, ?)",
                   [(index, address) for index in range(1, count + 1)])


def crash(db: InstantDB) -> None:
    """Abandon the engine without close(): no checkpoint, no final flush."""
    db.daemon.pause()            # nothing may run while "the process is dead"


def _city_rows(db: InstantDB):
    db.execute("DECLARE PURPOSE _city SET ACCURACY LEVEL city "
               "FOR trace.location")
    return db.execute("SELECT * FROM trace", purpose="_city").to_dicts()


class TestOverdueStepsAfterCrash:
    def test_wedged_daemon_backlog_drains_once_on_reopen(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 5)
        db.daemon.pause()                     # the daemon dies first...
        db.advance_time(hours=2)              # ...steps come due, unapplied
        db.execute(f"INSERT INTO trace VALUES (99, '{LYON}')")   # ts proof
        assert db.daemon.backlog() == 5
        assert db.stats.degradation_steps_applied == 0
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        # Every overdue step fired exactly once; the late insert is untouched.
        assert report.overdue_steps_applied == 5
        assert report.registrations == 6
        assert report.recovered_to == 2 * HOUR
        assert db2.level_histogram("trace", "location") == {1: 5, 0: 1}
        assert db2.daemon.backlog() == 0
        assert db2.daemon.stats.catch_up_steps == 5
        # Row 99 was inserted at t=2h: its first step is due at 3h.
        assert db2.scheduler.peek_next_due() == 2 * HOUR + HOUR

    def test_kill_between_wal_flush_and_step_application(self, tmp_path):
        """The acceptance scenario: crash mid-wave, after the WAL flush of the
        first batch but before the remaining batches apply."""
        db = build_trace_db(tmp_path, degradation_max_batch=2)
        insert_wave(db, 6)

        original = db.daemon.applier
        calls = {"count": 0}

        def crashing_applier(key, steps):
            calls["count"] += 1
            if calls["count"] > 1:            # batch 1 committed + flushed,
                raise KeyboardInterrupt      # then the process is killed
            return original(key, steps)

        db.daemon.applier = crashing_applier
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(hours=2)
        assert db.stats.degradation_steps_applied == 2
        # The committed batch is in the surviving log as one chunk record.
        assert sum(r.record_type is LogRecordType.DEGRADE for r in db.wal) == 1
        crash(db)

        db2 = build_trace_db(tmp_path, degradation_max_batch=2)
        report = db2.recover()
        assert report.recovery.wal_prep_passes == 1
        assert report.recovery.redone_degrade_chunks >= 1
        # The two logged steps are *replayed* (not re-applied); the four
        # unapplied ones come back overdue and fire exactly once.
        assert report.schedule.steps_replayed == 2
        assert report.overdue_steps_applied == 4
        assert db2.stats.degradation_steps_applied == 4
        assert db2.level_histogram("trace", "location") == {1: 6}
        assert db2.daemon.backlog() == 0
        # Nothing was double-degraded: every row sits exactly one step along,
        # with its next step due at the original cadence.
        assert db2.scheduler.peek_next_due() == HOUR + DAY

    def test_huge_waves_chunk_their_schedule_records(self, tmp_path, monkeypatch):
        """A wave larger than one record's field cap spans several SCHED_STEP
        records in the same system transaction; replay reads them all."""
        from repro.engine import database as database_module

        monkeypatch.setattr(database_module, "_SCHED_RECORD_CHUNK", 2)
        db = build_trace_db(tmp_path)
        insert_wave(db, 5)
        db.advance_time(hours=2)
        step_records = [record for record in db.wal
                        if record.record_type is LogRecordType.SCHED_STEP]
        assert len(step_records) == 3          # ceil(5 / 2)
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.schedule.steps_replayed == 5
        assert report.overdue_steps_applied == 0
        assert db2.level_histogram("trace", "location") == {1: 5}

    def test_recovered_rows_survive_scrubbed_log_images(self, tmp_path):
        """Degraded rows exist only on their flushed pages (their accurate log
        images are scrubbed); recovery must find those pages again."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.advance_time(hours=2)              # degrade + scrub the log images
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.schedule.registrations_dropped == 0
        assert db2.row_count("trace") == 3
        assert db2.level_histogram("trace", "location") == {1: 3}
        # The accurate addresses are gone for good, even after recovery.
        assert PARIS.encode() not in db2.forensic_image()


class TestCleanShutdownSnapshot:
    def test_recovery_restores_from_snapshot_not_tail(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 5)
        db.advance_time(hours=2)
        db.close()                            # writes the SCHED_CHECKPOINT

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.schedule.snapshot_lsn > 0
        assert report.schedule.snapshot_restored == 5
        # The whole schedule came from the snapshot; the tail had nothing.
        assert report.schedule.registrations_replayed == 0
        assert report.schedule.steps_replayed == 0
        assert report.overdue_steps_applied == 0
        # Cadence preserved: next step 1 day after the first one fired at 1h.
        assert db2.scheduler.peek_next_due() == HOUR + DAY
        assert db2.scheduler.current_state(("trace", 1)) == {"location": 1}

    def test_torn_snapshot_tail_falls_back_to_previous_checkpoint(self, tmp_path):
        """A checkpoint whose marker is lost to a torn tail write must not
        shadow the previous intact snapshot."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.checkpoint(truncate_wal=True)      # intact snapshot run + marker
        db.advance_time(hours=2)
        db.checkpoint()                       # second snapshot run + marker
        # Simulate the torn tail: the second marker (the last record) only
        # half reached the disk, exactly what WriteAheadLog._load chops.
        assert db.wal.records()[-1].record_type.name == "CHECKPOINT"
        crash(db)
        wal_dir = tmp_path / "wal"
        last_segment = sorted(wal_dir.glob("*.seg"))[-1]
        os.truncate(last_segment, last_segment.stat().st_size - 3)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        # Recovery anchored on the first (intact) checkpoint and replayed the
        # tail behind it — nothing was silently lost.
        assert report.registrations == 3
        assert report.overdue_steps_applied == 0
        assert db2.level_histogram("trace", "location") == {1: 3}
        assert db2.scheduler.peek_next_due() == HOUR + DAY

    def test_checkpoint_truncation_keeps_schedule_and_pages(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 4)
        db.advance_time(hours=2)
        db.checkpoint(truncate_wal=True)      # drops the log prefix
        db.execute(f"INSERT INTO trace VALUES (50, '{LYON}')")
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        # Snapshot from the surviving checkpoint + the one tail registration.
        assert report.schedule.snapshot_restored == 4
        assert report.schedule.registrations_replayed == 1
        assert db2.row_count("trace") == 5
        assert db2.level_histogram("trace", "location") == {1: 4, 0: 1}


class TestDeferralsAndEvents:
    def test_deferred_step_survives_crash(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 1)
        blocker = db.begin()
        db.execute("SELECT * FROM trace", txn=blocker)   # shared lock held
        db.advance_time(hours=2)              # lock conflict -> batch deferred
        assert db.stats.degradation_conflicts == 1
        assert db.stats.degradation_steps_applied == 0
        crash(db)                             # dies before the retry fires

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.schedule.defers_replayed == 1
        # The retry time (conflict + 1s) is still in the future at t=2h...
        assert report.overdue_steps_applied == 0
        assert db2.daemon.backlog() == 0
        # ...and the step fires once the clock passes it, with its original
        # due time (1h) intact for lag accounting.
        db2.advance_time(seconds=2)
        assert db2.stats.degradation_steps_applied == 1
        assert db2.scheduler.stats.max_lag == pytest.approx(HOUR + 2)
        assert db2.level_histogram("trace", "location") == {1: 1}

    def test_event_fired_but_steps_unapplied_at_crash(self, tmp_path):
        db = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        insert_wave(db, 2)
        db.advance_time(hours=5)              # nothing due: waiting on event

        def crashing_applier(key, steps):     # killed before any step applies
            raise KeyboardInterrupt

        db.daemon.applier = crashing_applier
        with pytest.raises(KeyboardInterrupt):
            db.fire_event("consent_revoked")  # the firing itself is durable
        crash(db)

        db2 = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        report = db2.recover()
        assert report.schedule.events_replayed == 1
        # The released steps came back overdue at the firing time and applied.
        assert report.overdue_steps_applied == 2
        assert db2.level_histogram("trace", "location") == {1: 2}
        # Timed follow-up runs relative to the event, as in live operation.
        assert db2.scheduler.peek_next_due() == 5 * HOUR + DAY

    def test_event_waiters_survive_clean_shutdown(self, tmp_path):
        db = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        insert_wave(db, 2)
        db.close()

        db2 = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        report = db2.recover()
        assert report.schedule.snapshot_restored == 2
        assert db2.daemon.backlog() == 0
        db2.fire_event("consent_revoked")
        assert db2.level_histogram("trace", "location") == {1: 2}


class TestScheduleHygieneAcrossRestart:
    def test_deleted_rows_are_not_resurrected(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.execute("DELETE FROM trace WHERE id = 2")
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.registrations == 2
        assert report.schedule.registrations_dropped == 1
        assert not db2.scheduler.is_registered(("trace", 2))
        assert db2.row_count("trace") == 2

    def test_recreated_table_ignores_old_epoch_records(self, tmp_path):
        """A re-created table reuses row keys; recovery must not replay the
        dropped incarnation's removals (or registrations) against it."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 1)
        db.execute("DROP TABLE trace")
        db.execute("CREATE TABLE trace (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        db.execute(f"INSERT INTO trace VALUES (1, '{LYON}')")
        db.advance_time(hours=2)      # new row degrades: its log image is
        crash(db)                     # scrubbed, it exists only on its page

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        # The new epoch's row survives with its degraded state and schedule.
        assert db2.row_count("trace") == 1
        assert db2.level_histogram("trace", "location") == {1: 1}
        assert report.registrations == 1
        assert db2.scheduler.current_state(("trace", 1)) == {"location": 1}
        assert db2.scheduler.peek_next_due() == HOUR + DAY

    def test_loser_transaction_inserts_never_enter_the_schedule(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 1)
        open_txn = db.begin()
        db.execute(f"INSERT INTO trace VALUES (7, '{LYON}')", txn=open_txn)
        db.wal.flush()                        # the crash hits mid-transaction
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        # The loser's row never survives (its page was not flushed and its
        # insert is not redone) and its registration is not replayed.
        assert open_txn.txn_id in report.recovery.loser_txns
        assert db2.row_count("trace") == 1
        assert report.registrations == 1
        assert not db2.scheduler.is_registered(("trace", 2))

    def test_dropped_table_does_not_block_recovery(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 2)
        db.execute("CREATE TABLE scratch (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
        db.execute(f"INSERT INTO scratch VALUES (1, '{LYON}')")
        db.execute("DROP TABLE scratch")
        crash(db)

        # The reopened catalog does not recreate the dropped table; its
        # surviving log records (inserts, page allocs, removals) are skipped.
        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.registrations == 2
        assert db2.tables() == ["trace"]
        assert db2.row_count("trace") == 2

    def test_event_without_waiters_writes_no_log_record(self, tmp_path):
        db = build_trace_db(tmp_path)          # timed policy: no event waiters
        insert_wave(db, 1)
        flushes = db.wal.stats.flushed
        assert db.fire_event("nobody_waits") == []
        assert db.wal.stats.flushed == flushes
        assert all(record.record_type is not LogRecordType.SCHED_EVENT
                   for record in db.wal)

    def test_row_keys_are_not_reused_after_recovery(self, tmp_path):
        """Keys freed by a removal must stay retired: a reused key would
        collide with the old incarnation's surviving REMOVE records on the
        *next* recovery and silently delete the new committed row."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.execute("DELETE FROM trace WHERE id = 3")   # frees row key 3
        crash(db)

        db2 = build_trace_db(tmp_path)
        db2.recover()
        new_key = db2.insert_row("trace", {"id": 9, "location": LYON})
        assert new_key == 4                            # 3 stays retired
        db2.advance_time(hours=2)                      # scrub the new insert
        crash(db2)

        db3 = build_trace_db(tmp_path)
        db3.recover()
        # The new row survives the second recovery (no stale REMOVE replay).
        assert db3.row_count("trace") == 3
        assert {row["id"] for row in _city_rows(db3)} == {1, 2, 9}

    def test_per_tuple_override_survives_selector_degradation(self, tmp_path):
        """Recovery must restore the override automaton even though the
        selector value that picked it has since been degraded/suppressed."""
        def build(path):
            db = build_trace_db(path)
            db.execute("CREATE TABLE users (id INT PRIMARY KEY, "
                       "owner TEXT DEGRADABLE DOMAIN location POLICY location_lcp)")
            db.register_policy(domain="location",
                               transitions=["30 min", "1 hour", "1 day", "1 week"],
                               name="paranoid_lcp")
            policy = db.table_policy("users")
            policy.selector_column = "owner"
            db.register_user_policy(
                "users", "1 Main Street, Paris",
                {"owner": db.registry.policy("paranoid_lcp")})
            return db

        db = build(tmp_path)
        db.insert_row("users", {"id": 1, "owner": "1 Main Street, Paris"})
        db.advance_time(hours=2)     # override steps fire; the selector value
        crash(db)                    # itself is now degraded past recognition

        db2 = build(tmp_path)
        db2.recover()
        # Selector-based re-resolution would now miss the override (the
        # stored value is no longer '1 Main Street, Paris'); the persisted
        # policy names keep the paranoid cadence: 30min + 1h steps have both
        # fired by t=2h, and the next (1 day) step counts from t=1.5h.
        assert db2.scheduler.current_state(("users", 1)) == {"owner": 2}
        assert db2.scheduler.peek_next_due() == 1.5 * HOUR + DAY

    def test_indexes_are_rebuilt_from_recovered_rows(self, tmp_path):
        """Secondary indexes were populated against still-empty stores by the
        re-run DDL; recovery must refill them or index-backed queries return
        wrong results and GT maintenance crashes on the next wave."""
        def build(path):
            db = build_trace_db(path)
            db.execute("CREATE INDEX idx_id ON trace (id) USING hash")
            db.execute("CREATE INDEX idx_loc ON trace (location) USING gt")
            return db

        db = build(tmp_path)
        insert_wave(db, 3)
        db.advance_time(hours=2)
        crash(db)

        db2 = build(tmp_path)
        db2.recover()
        # Index-backed equality lookup finds the recovered row...
        db2.execute("DECLARE PURPOSE svc SET ACCURACY LEVEL city "
                    "FOR trace.location")
        result = db2.execute("SELECT id FROM trace WHERE id = 2",
                             purpose="svc")
        assert result.rows == [(2,)]
        # ...and the next degradation wave maintains the GT index without
        # tripping over entries that were never inserted.
        db2.advance_time(days=1)
        assert db2.level_histogram("trace", "location") == {2: 3}

    def test_recovery_is_idempotent(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.daemon.pause()
        db.advance_time(hours=2)
        db.execute(f"INSERT INTO trace VALUES (99, '{LYON}')")
        crash(db)

        db2 = build_trace_db(tmp_path)
        first = db2.recover()
        assert first.overdue_steps_applied == 3
        # A second pass finds everything already applied and registered.
        second = db2.recover()
        assert second.overdue_steps_applied == 0
        assert second.registrations == first.registrations
        assert db2.level_histogram("trace", "location") == {1: 3, 0: 1}
