"""Crash recovery of the degradation schedule, derived from the heap.

The paper's promise is *timely* degradation regardless of what happens to the
process.  These tests kill the engine at every awkward moment — mid-wave
between the WAL flush and the step application, while a deferral is pending,
between an event firing and its released steps — reopen the database
directory, run :meth:`InstantDB.recover`, and assert that every overdue step
fires **exactly once**: no step is lost, no tuple is degraded twice.  The
recovered schedule — states, due times (compared exactly) and event waiters
— is the one the live engine had.
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.clock import DAY, HOUR
from repro.core.domains import build_location_tree
from repro.core.errors import PolicyError
from repro.storage.wal import LogRecordType

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"

#: Fig. 2 cadence: address -1h-> city -1d-> region -1mo-> country -3mo-> gone.
TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]

#: Same automaton but the first transition waits for a named event.
EVENT_TRANSITIONS = [{"event": "consent_revoked"}, "1 day", "1 month", "3 months"]


def build_trace_db(data_dir, transitions=TRANSITIONS, tables=("trace",)) -> InstantDB:
    """An engine over ``data_dir`` whose tables share one location policy
    (reopening re-runs the DDL)."""
    db = InstantDB(data_dir=str(data_dir))
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, transitions=transitions,
                                    name="location_lcp"))
    for table in tables:
        db.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, location TEXT "
                   "DEGRADABLE DOMAIN location POLICY location_lcp)")
    return db


def insert_wave(db: InstantDB, count: int, address: str = PARIS,
                table: str = "trace") -> None:
    db.executemany(f"INSERT INTO {table} VALUES (?, ?)",
                   [(index, address) for index in range(1, count + 1)])


def crash_on_second_batch(db: InstantDB) -> None:
    """The daemon's second batch kills the process: the first one has
    committed and flushed its WAL records."""
    original = db.daemon.applier
    calls = []

    def crashing_applier(key, steps):
        calls.append(key)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return original(key, steps)

    db.daemon.applier = crashing_applier


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

    def test_kill_between_two_catch_up_rounds(self, tmp_path):
        """The acceptance scenario: crash mid-drain, after the WAL flush of
        the first round's batch but before the next round applies."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 6)
        crash_on_second_batch(db)
        logged = len(db.wal)
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(days=2)           # 1 hour, then (next round) 1 day
        assert db.stats.degradation_steps_applied == 6
        # The first round logged its scrub's audit record alone: its synced
        # pages are the record of its steps.
        assert [r.record_type for r in db.wal.records()[logged:]] == [LogRecordType.SCRUB]
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.recovery.wal_prep_passes == 1
        # The first round's steps are on the heap (not re-applied), and the
        # clock stands where they prove it stood: at their due time, 1 h.
        # Nothing proves the second round's time came: it is pending, and
        # fires exactly once when it does.
        assert report.recovered_to == HOUR
        assert report.overdue_steps_applied == 0
        assert db2.level_histogram("trace", "location") == {1: 6}
        db2.advance_time(days=1)
        assert db2.stats.degradation_steps_applied == 6
        assert db2.level_histogram("trace", "location") == {2: 6}
        assert db2.daemon.backlog() == 0
        # Nothing was double-degraded: every row sits exactly two steps
        # along, with its next step due at the original cadence.
        assert db2.scheduler.peek_next_due() == HOUR + DAY + 30 * DAY

    def test_kill_between_two_tables_waves(self, tmp_path):
        """One round, two tables: the first table's wave committed, the
        second never began."""
        db = build_trace_db(tmp_path, tables=("trace", "other"))
        insert_wave(db, 4)
        insert_wave(db, 3, table="other")
        crash_on_second_batch(db)
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(hours=2)
        crash(db)

        db2 = build_trace_db(tmp_path, tables=("trace", "other"))
        report = db2.recover()
        assert report.overdue_steps_applied == 3      # the second table's only
        assert db2.level_histogram("trace", "location") == {1: 4}
        assert db2.level_histogram("other", "location") == {1: 3}
        assert db2.daemon.backlog() == 0
        assert db2.scheduler.peek_next_due() == HOUR + DAY

    def test_a_tuple_left_final_on_the_heap_is_removed(self, tmp_path):
        """A crash between a wave's last step (pages flushed) and its removal
        leaves the tuples fully suppressed on the heap: recovery finishes the
        removal the wave began."""
        transitions = ["1 hour"] * 4
        db = build_trace_db(tmp_path, transitions)
        insert_wave(db, 3)
        db.advance_time(hours=3)

        def die(*args, **kwargs):
            raise KeyboardInterrupt

        db.table_store("trace").remove_many = die
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(hours=1)
        crash(db)

        db2 = build_trace_db(tmp_path, transitions)
        report = db2.recover()
        assert report.registrations == 0
        assert db2.row_count("trace") == 0
        assert db2.stats.rows_removed_by_policy == 3
        assert PARIS.encode() not in db2.forensic_image()

    def test_recovered_rows_survive_scrubbed_log_images(self, tmp_path):
        """Degraded rows exist only on their flushed pages (their accurate log
        images are scrubbed); recovery must find those pages again."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.advance_time(hours=2)              # degrade + scrub the log images
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.registrations == 3
        assert db2.row_count("trace") == 3
        assert db2.level_histogram("trace", "location") == {1: 3}
        # The accurate addresses are gone for good, even after recovery.
        assert PARIS.encode() not in db2.forensic_image()


class TestCheckpoints:
    def test_clean_shutdown_keeps_the_cadence(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 5)
        db.advance_time(hours=2)
        db.close()                            # a checkpoint: no schedule record

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.registrations == 5
        assert report.overdue_steps_applied == 0
        # Cadence preserved: next step 1 day after the first one fired at 1h.
        assert db2.scheduler.peek_next_due() == HOUR + DAY
        assert db2.scheduler.current_state(("trace", 1)) == {"location": 1}

    def test_torn_checkpoint_marker_falls_back_to_previous_checkpoint(self, tmp_path):
        """A checkpoint whose marker is lost to a torn tail write must not
        shadow the previous intact one."""
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.checkpoint(truncate_wal=True)      # intact anchor + marker
        db.advance_time(hours=2)
        db.checkpoint()                       # second anchor + marker
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
        assert report.registrations == 5
        assert db2.row_count("trace") == 5
        assert db2.level_histogram("trace", "location") == {1: 4, 0: 1}
        assert db2.scheduler.current_state(("trace", 1)) == {"location": 1}
        assert db2.scheduler.current_state(("trace", 5)) == {"location": 0}
        # Row 50 was inserted at t=2h: its first step is due at 3h.
        assert db2.scheduler.peek_next_due() == 2 * HOUR + HOUR


class TestDeferralsAndEvents:
    def test_a_deferred_step_is_overdue_after_a_crash(self, tmp_path):
        """A deferral is not durable: after the crash no transaction holds the
        lock it waited for, so the step is simply overdue."""
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
        # The log proves no time past the insert (the deferral logged
        # nothing), so the step is queued at its 1h due again...
        assert report.recovered_to == 0.0
        assert report.overdue_steps_applied == 0
        assert db2.scheduler.peek_next_due() == HOUR
        # ...and fires once the clock passes it, its lag counted from 1h.
        db2.advance_time(hours=2)
        assert db2.stats.degradation_steps_applied == 1
        assert db2.scheduler.stats.max_lag == HOUR
        assert db2.level_histogram("trace", "location") == {1: 1}
        assert db2.scheduler.peek_next_due() == HOUR + DAY

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
        # The released steps came back overdue at the firing time and applied.
        assert report.overdue_steps_applied == 2
        assert db2.level_histogram("trace", "location") == {1: 2}
        # Timed follow-up runs relative to the event, as in live operation.
        assert db2.scheduler.peek_next_due() == 5 * HOUR + DAY

    def test_a_truncating_checkpoint_keeps_the_firings_live_rows_need(self, tmp_path):
        db = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        insert_wave(db, 2)
        db.advance_time(hours=5)
        db.fire_event("consent_revoked")      # both rows enter d1 at 5h
        first = [r.lsn for r in db.wal if r.record_type is LogRecordType.SCHED_EVENT]
        db.checkpoint(truncate_wal=True)      # the firing's own record goes...
        kept = [(r.lsn, r.timestamp) for r in db.wal
                if r.record_type is LogRecordType.SCHED_EVENT]
        assert len(first) == len(kept) == 1 and kept[0][0] > first[0]
        assert kept[0][1] == 5 * HOUR         # ...logged again behind the anchor
        crash(db)

        db2 = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        db2.recover()
        assert db2.level_histogram("trace", "location") == {1: 2}
        assert db2.scheduler.peek_next_due() == 5 * HOUR + DAY

    def test_event_waiters_survive_clean_shutdown(self, tmp_path):
        db = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        insert_wave(db, 2)
        db.close()

        db2 = build_trace_db(tmp_path, transitions=EVENT_TRANSITIONS)
        report = db2.recover()
        assert report.registrations == 2
        assert db2.daemon.backlog() == 0
        assert [queued for _ids, _states, queued in db2.scheduler.cohorts()] == [{}]
        db2.fire_event("consent_revoked")
        assert db2.level_histogram("trace", "location") == {1: 2}


def schedule_of(db: InstantDB):
    """Per record its states and queued steps, and who waits on the event."""
    return ({record_id: (states, queued) for ids, states, queued in db.scheduler.cohorts()
             for record_id in ids}, "case_closed" in db.scheduler._event_waiters)


class TestEventRuleAcrossRecovery:
    """A firing releases the attributes that wait on it when it fires, a
    wait that begins at that very instant included; a recovered engine
    derives the same from the logged firing."""

    TRANSITIONS = ["1 hour", {"event": "case_closed"}, "1 month", "3 months"]

    def twins(self, tmp_path):
        return (build_trace_db(tmp_path / "live", self.TRANSITIONS),
                build_trace_db(tmp_path / "victim", self.TRANSITIONS))

    def recovered(self, tmp_path):
        db = build_trace_db(tmp_path / "victim", self.TRANSITIONS)
        db.recover()
        return db

    def test_a_wait_that_begins_after_the_firing_is_not_released(self, tmp_path):
        live, victim = self.twins(tmp_path)
        for db in (live, victim):
            insert_wave(db, 1)
            db.advance_time(hours=2)          # row 1 waits since 1h
            db.execute(f"INSERT INTO trace VALUES (2, '{LYON}')")
            db.fire_event("case_closed")      # at 2h: row 1 only
            db.advance_time(hours=2)          # row 2 waits since 3h
        crash(victim)
        db2 = self.recovered(tmp_path)
        assert schedule_of(db2) == schedule_of(live)
        assert db2.scheduler.current_state(("trace", 2)) == {"location": 1}
        assert db2.scheduler.peek_next_due() == 2 * HOUR + 30 * DAY
        for db in (live, db2):
            db.fire_event("case_closed")
        assert db2.level_histogram("trace", "location") == \
            live.level_histogram("trace", "location") == {2: 2}

    def test_a_firing_tied_with_the_start_of_a_wait_releases_it(self, tmp_path):
        live, victim = self.twins(tmp_path)
        for db in (live, victim):
            insert_wave(db, 1)
            db.advance_time(hours=1)          # row 1 waits from exactly 1h

        def crashing_applier(key, steps):     # dies before the released step
            raise KeyboardInterrupt

        victim.daemon.applier = crashing_applier
        with pytest.raises(KeyboardInterrupt):
            victim.fire_event("case_closed")
        crash(victim)
        live.fire_event("case_closed")
        db2 = self.recovered(tmp_path)
        assert db2.level_histogram("trace", "location") == \
            live.level_histogram("trace", "location") == {2: 1}
        assert schedule_of(db2) == schedule_of(live)
        assert db2.scheduler.peek_next_due() == HOUR + 30 * DAY


    @staticmethod
    def held_back_past_a_firing(db, other_waiter):
        """Row 1's timed step is due while a reader holds the table, and the
        event fires before it lands; returns the reader."""
        if other_waiter:
            db.execute(f"INSERT INTO trace VALUES (9, '{LYON}')")
            db.advance_time(hours=1)          # row 9 waits from now
        insert_wave(db, 1)
        holder = db.begin()
        db.execute("SELECT COUNT(*) FROM trace", txn=holder)
        db.advance_time(hours=1)              # row 1's step is due: deferred
        db.advance_time(seconds=0.5)
        db.fire_event("case_closed")
        return holder

    @pytest.mark.parametrize("other_waiter", [False, True], ids=["alone", "other_waiter"])
    def test_a_step_held_back_past_a_firing_is_released_as_it_lands(self, tmp_path,
                                                                     other_waiter):
        live, victim = self.twins(tmp_path)
        holder = self.held_back_past_a_firing(live, other_waiter)
        self.held_back_past_a_firing(victim, other_waiter)
        fired_at = victim.now()
        crash(victim)                         # the reader dies with it
        live.commit(holder)
        live.advance_time(seconds=1)          # the step lands, the firing releases it
        db2 = self.recovered(tmp_path)        # overdue: the catch-up does the same
        assert db2.level_histogram("trace", "location") == \
            live.level_histogram("trace", "location") == {2: 1 + other_waiter}
        assert schedule_of(db2) == schedule_of(live)
        assert db2.scheduler.peek_next_due() == fired_at + 30 * DAY


class TestScheduleHygieneAcrossRestart:
    def test_deleted_rows_are_not_resurrected(self, tmp_path):
        db = build_trace_db(tmp_path)
        insert_wave(db, 3)
        db.execute("DELETE FROM trace WHERE id = 2")
        crash(db)

        db2 = build_trace_db(tmp_path)
        report = db2.recover()
        assert report.registrations == 2
        assert not db2.scheduler.is_registered(("trace", 2))
        assert db2.row_count("trace") == 2

    def test_recreated_table_ignores_old_epoch_records(self, tmp_path):
        """A re-created table reuses row keys; recovery must not replay the
        dropped incarnation's removals against it."""
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
        # insert is not redone), so it is not on the heap to be scheduled.
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
        collide with the old incarnation's surviving −1 entries on the
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

    def test_a_selector_must_be_stable(self, tmp_path):
        """A per-tuple policy is keyed on a column that never changes (not a
        degradable one) and on a value no live row holds yet (that row
        follows the default policy)."""
        db = build_trace_db(tmp_path)
        db.execute("CREATE TABLE users (id INT PRIMARY KEY, owner INT, "
                   "home TEXT DEGRADABLE DOMAIN location POLICY location_lcp)")
        paranoid = db.register_policy(domain="location", name="paranoid_lcp",
                                      transitions=["30 min", "1 hour", "1 day", "1 week"])
        db.table_policy("users").selector_column = "home"
        with pytest.raises(PolicyError, match="non-degradable"):
            db.register_user_policy("users", PARIS, {"home": paranoid})
        db.table_policy("users").selector_column = "missing"
        with pytest.raises(PolicyError, match="non-degradable"):
            db.register_user_policy("users", 1, {"home": paranoid})
        db.table_policy("users").selector_column = "owner"
        db.execute(f"INSERT INTO users VALUES (1, 7, '{PARIS}')")
        with pytest.raises(PolicyError, match="already holds"):
            db.register_user_policy("users", 7, {"home": paranoid})
        db.register_user_policy("users", 8, {"home": paranoid})

    def test_per_tuple_override_keeps_its_cadence_across_recovery(self, tmp_path):
        """The override a row's stable selector picks is found again from the
        row itself: after a crash, and after a truncating checkpoint."""
        def build(path):
            db = build_trace_db(path)
            db.execute("CREATE TABLE users (id INT PRIMARY KEY, owner INT, "
                       "home TEXT DEGRADABLE DOMAIN location POLICY location_lcp)")
            db.register_policy(domain="location",
                               transitions=["30 min", "1 hour", "1 day", "1 week"],
                               name="paranoid_lcp")
            db.table_policy("users").selector_column = "owner"
            db.register_user_policy("users", 42, {"home": db.registry.policy("paranoid_lcp")})
            return db

        db = build(tmp_path)
        db.insert_row("users", {"id": 1, "owner": 42, "home": PARIS})
        db.insert_row("users", {"id": 2, "owner": 7, "home": PARIS})
        db.advance_time(hours=2)     # the override's 30 min and 1 h steps fire
        crash(db)

        for truncate in (False, True):
            db = build(tmp_path)
            db.recover()
            assert db.scheduler.current_state(("users", 1)) == {"home": 2}
            assert db.scheduler.current_state(("users", 2)) == {"home": 1}
            # The override's next step (1 day) counts from t=1.5h.
            queued = {ids: queued for ids, _states, queued in db.scheduler.cohorts()}
            assert queued[(("users", 1),)] == {"home": (1.5 * HOUR + DAY,) * 2}
            assert queued[(("users", 2),)] == {"home": (HOUR + DAY,) * 2}
            db.checkpoint(truncate_wal=truncate)
            crash(db)

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
