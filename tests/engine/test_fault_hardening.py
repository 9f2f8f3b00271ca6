"""Engine hardening under injected I/O faults.

A :class:`~repro.faults.FaultPlan` arms the engine's durability seams
(``wal.flush``, ``wal.scrub``, ``pager.sync``, ``clock.advance``) and the
engine must honour the degraded-mode contract: a typed
:class:`DurabilityError`, a clean transaction abort, sticky read-only mode
that keeps serving reads, and a one-call :meth:`InstantDB.recover` that
resumes writes with no lost committed data and no leaked loser data.
"""

import pytest

from repro import AttributeLCP
from repro.core.domains import build_location_tree
from repro.core.errors import (
    DurabilityError,
    ReadOnlyModeError,
)
from repro.engine.database import InstantDB
from repro.faults import FaultPlan
from repro.workloads import LocationTraceGenerator, person_table_sql


def build_db(tmp_path, plan=None):
    db = InstantDB(data_dir=str(tmp_path / "db"), fault_plan=plan)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, val TEXT)")
    db.execute("INSERT INTO t (id, val) VALUES (1, 'kept')")
    return db


class TestCommitFlushFault:
    def test_failed_commit_degrades_and_aborts_cleanly(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = build_db(tmp_path, plan)
        try:
            plan.fail_once("wal.flush", "enospc")
            with pytest.raises(DurabilityError):
                db.execute("INSERT INTO t (id, val) VALUES (2, 'lost')")
            assert db.read_only
            assert "no space left" in db.read_only_reason
            # reads still work and the aborted insert is invisible
            rows = db.execute("SELECT id FROM t").rows
            assert [row[0] for row in rows] == [1]
            # writes are refused with the sticky typed error
            with pytest.raises(ReadOnlyModeError):
                db.execute("INSERT INTO t (id, val) VALUES (3, 'refused')")
        finally:
            db.close()

    def test_recover_clears_read_only_and_resumes_writes(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = build_db(tmp_path, plan)
        try:
            plan.fail_once("wal.flush", "enospc")
            with pytest.raises(DurabilityError):
                db.execute("INSERT INTO t (id, val) VALUES (2, 'lost')")
            assert db.read_only
            db.recover(drain=True)
            assert not db.read_only
            db.execute("INSERT INTO t (id, val) VALUES (3, 'resumed')")
            rows = db.execute("SELECT id FROM t").rows
            assert sorted(row[0] for row in rows) == [1, 3]
        finally:
            db.close()

    def test_committed_data_survives_cold_reopen_after_fault(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = build_db(tmp_path, plan)
        plan.fail_once("wal.flush", "torn_write")
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t (id, val) VALUES (2, 'lost')")
        db.daemon.pause()  # abandon: no close(), like a crash

        reopened = InstantDB(data_dir=str(tmp_path / "db"))
        try:
            reopened.recover(drain=True)
            # one-call reopen: the catalog came back from the WAL, no DDL
            assert reopened.catalog.tables()
            rows = reopened.execute("SELECT id, val FROM t").rows
            assert [(row[0], row[1]) for row in rows] == [(1, "kept")]
        finally:
            reopened.close()


class TestUndoFault:
    def test_failed_undo_degrades_but_releases_locks(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = build_db(tmp_path, plan)
        try:
            txn = db.begin()
            db.execute("INSERT INTO t (id, val) VALUES (2, 'doomed')",
                       txn=txn)
            # the rollback's undo (WAL scrub of the logged insert) fails
            plan.fail_once("wal.scrub", "fsync")
            db.rollback(txn)
            assert db.read_only
            assert "undo failure" in db.read_only_reason
            assert db.transactions.stats.undo_failures == 1
            # the abort still completed: no wedged locks, no active txn
            assert not db.transactions.is_active(txn.txn_id)
            db.recover(drain=True)
            # the table is writable again — the loser's lock was released
            db.execute("INSERT INTO t (id, val) VALUES (3, 'after')")
            rows = db.execute("SELECT id FROM t").rows
            assert sorted(row[0] for row in rows) == [1, 3]
        finally:
            db.close()


class TestPagerFault:
    def test_checkpoint_sync_fault_degrades_then_recovers(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = build_db(tmp_path, plan)
        try:
            plan.fail_once("pager.sync", "fsync")
            with pytest.raises(DurabilityError):
                db.checkpoint()
            assert db.read_only
            db.recover(drain=True)
            assert not db.read_only
            db.checkpoint()
        finally:
            db.close()


class TestDaemonWaveFault:
    def test_faulted_wave_defers_and_retries_with_backoff(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = InstantDB(data_dir=str(tmp_path / "db"), fault_plan=plan)
        try:
            location = db.register_domain(build_location_tree())
            db.register_policy(AttributeLCP(
                location, transitions=["1 hour", "1 day", "1 month",
                                       "3 months"],
                name="location_lcp"))
            db.execute(person_table_sql(policy_name="location_lcp",
                                        salary_policy=None))
            generator = LocationTraceGenerator(num_users=4, seed=5)
            for index, event in enumerate(generator.events(10), start=1):
                row = event.as_row()
                row["id"] = index
                db.insert_row("person", row)
            # every wave's page sync for a while hits the failing device
            plan.fail_with_probability("pager.sync", "enospc", 1.0,
                                       max_fires=3)
            db.advance_time(3700)
            assert db.daemon.stats.steps_deferred_by_fault > 0
            assert not db.read_only  # background waves never degrade the engine
            # backoff drains once the device heals: each advance retries the
            # deferred steps and (device healthy again) they eventually land
            for _ in range(10):
                db.advance_time(86400.0)
            assert db.stats.degradation_steps_applied > 0
        finally:
            db.close()

    @pytest.mark.parametrize("site", ["wal.scrub", "pager.sync"])
    def test_a_wave_faulted_after_its_rewrite_leaves_no_stale_index_key(
            self, tmp_path, site):
        """The fault hits after the wave rewrote its pages: the retry finds
        the rows already at their target and has no chunk to hand over, so
        indexes and statistics must have followed the heap at the rewrite —
        else the GT index kept the accurate address for good."""
        from ..conftest import derived_state
        plan = FaultPlan(seed=1)
        db = InstantDB(data_dir=str(tmp_path / "db"), fault_plan=plan)
        try:
            location = db.register_domain(build_location_tree())
            db.register_policy(AttributeLCP(
                location, transitions=["1 hour", "1 day", "1 month", "3 months"],
                name="location_lcp"))
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, location TEXT "
                       "DEGRADABLE DOMAIN location POLICY location_lcp)")
            db.execute("CREATE INDEX t_location ON t (location) USING gt")
            db.executemany("INSERT INTO t VALUES (?, ?)",
                           [(i, "1 Main Street, Paris") for i in range(5)])
            plan.fail_once(site, "enospc" if site == "wal.scrub" else "fsync")
            db.advance_time(hours=2)
            assert plan.fired and db.daemon.stats.steps_deferred_by_fault == 5
            db.advance_time(seconds=2)           # the retry lands
            assert db.stats.degradation_steps_applied == 5
            live = derived_state(db, "t")
            db._rebuild_indexes()
            assert live == derived_state(db, "t")
            assert b"Main Street" not in db.forensic_image()
        finally:
            db.close()


class TestClockFault:
    def test_clock_skip_overshoots_monotonically(self, tmp_path):
        plan = FaultPlan(seed=1)
        db = InstantDB(fault_plan=plan)
        try:
            before = db.clock.now()
            plan.fail_once("clock.advance", "skip")
            db.advance_time(10)
            after = db.clock.now()
            # a skip may jump further than asked, never backwards or short
            assert after >= before + 10
        finally:
            db.close()
