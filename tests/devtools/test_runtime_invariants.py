"""The runtime half of devtools: lock-order tracking, the documented lock
hierarchy, observe-only 2PL inversion recording, and engine-thread
confinement — provoked deliberately, end to end through a live server."""

import threading

import pytest

from repro import InstantDB
from repro.core.errors import DeadlockError
from repro.devtools import invariants
from repro.devtools.invariants import InvariantViolation, TrackedLock
from repro.server import ServerThread
from repro.txn.locks import LockManager, LockMode

from ..conftest import build_engine


@pytest.fixture(autouse=True)
def armed():
    """Arm the checks for each test; restore the ambient state afterwards."""
    was_enabled = invariants.enabled()
    invariants.reset()
    invariants.enable()
    yield
    invariants.reset()
    if not was_enabled:
        invariants.disable()


class TestLockOrderTracking:
    def test_opposite_order_acquisition_raises(self):
        a, b = TrackedLock("alpha"), TrackedLock("beta")
        with a:
            with b:
                pass
        # Same locks, opposite order: the a->b and b->a edges close a cycle,
        # reported at release time even though no deadlock actually occurred.
        with pytest.raises(InvariantViolation, match="lock-order inversion"):
            with b:
                with a:
                    pass
        assert any("alpha" in v and "beta" in v for v in invariants.violations)

    def test_consistent_order_is_clean(self):
        a, b = TrackedLock("alpha"), TrackedLock("beta")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert invariants.violations == []

    def test_reentrant_acquisition_is_not_a_cycle(self):
        a = TrackedLock("alpha")
        with a:
            with a:
                pass
        assert invariants.violations == []

    def test_cycle_reported_once(self):
        a, b = TrackedLock("alpha"), TrackedLock("beta")
        with a:
            with b:
                pass
        for _ in range(2):
            try:
                with b:
                    with a:
                        pass
            except InvariantViolation:
                pass
        assert len(invariants.violations) == 1

    def test_three_lock_cycle_detected(self):
        a, b, c = TrackedLock("l.a"), TrackedLock("l.b"), TrackedLock("l.c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(InvariantViolation):
            with c:
                with a:
                    pass

    def test_disabled_checks_do_not_raise(self):
        invariants.disable()
        a, b = TrackedLock("alpha"), TrackedLock("beta")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert invariants.violations == []


class TestLockHierarchy:
    def test_rank_inversion_raises_at_acquire(self, monkeypatch):
        monkeypatch.setattr(invariants, "LOCK_HIERARCHY", ("outer", "inner"))
        outer, inner = TrackedLock("outer"), TrackedLock("inner")
        with pytest.raises(InvariantViolation, match="hierarchy violation"):
            with inner:
                with outer:
                    pass

    def test_documented_order_is_clean(self, monkeypatch):
        monkeypatch.setattr(invariants, "LOCK_HIERARCHY", ("outer", "inner"))
        outer, inner = TrackedLock("outer"), TrackedLock("inner")
        with outer:
            with inner:
                pass
        assert invariants.violations == []

    def test_unranked_locks_skip_the_rank_check(self, monkeypatch):
        monkeypatch.setattr(invariants, "LOCK_HIERARCHY", ("outer",))
        outer, free = TrackedLock("outer"), TrackedLock("free")
        with free:
            with outer:              # "free" has no rank: order graph only
                pass
        assert invariants.violations == []


class TestObserved2PL:
    def test_2pl_inversion_recorded_not_raised(self):
        manager = LockManager()
        assert manager.acquire(1, "A", LockMode.EXCLUSIVE)
        assert manager.acquire(2, "B", LockMode.EXCLUSIVE)
        assert not manager.acquire(1, "B", LockMode.EXCLUSIVE)   # waits
        with pytest.raises(DeadlockError):
            manager.acquire(2, "A", LockMode.EXCLUSIVE)
        # Release closes the observation window; the inversion lands in the
        # observe-only channel (2PL cycles are the deadlock detector's job).
        manager.release_all(1)
        manager.release_all(2)
        assert len(invariants.observed_inversions) == 1
        assert "opposite orders" in invariants.observed_inversions[0]
        assert invariants.violations == []

    def test_consistent_2pl_order_records_nothing(self):
        manager = LockManager()
        for txn_id in (1, 2):
            assert manager.acquire(txn_id, "A", LockMode.SHARED)
            assert manager.acquire(txn_id, "B", LockMode.SHARED)
        manager.release_all(1)
        manager.release_all(2)
        assert invariants.observed_inversions == []

    def test_row_resources_keyed_by_table_and_row(self):
        manager = LockManager()
        assert manager.acquire(1, ("trace", 7), LockMode.EXCLUSIVE)
        assert manager.acquire(2, "trace", LockMode.SHARED) is False or True
        manager.release_all(1)
        manager.release_all(2)
        # Tuple resources must not collide with unrelated string names.
        assert invariants.observed_inversions == []

    def test_engine_deadlock_tests_still_pass_under_observation(self):
        # The engine's own deadlock resolution is untouched by observation:
        # the victim aborts, the survivor proceeds.
        db = InstantDB()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, v TEXT)")
        t1, t2 = db.begin(), db.begin()
        db.execute("INSERT INTO t VALUES (1, 'x')", txn=t1)
        db.execute("INSERT INTO u VALUES (1, 'y')", txn=t2)
        db.rollback(t1)
        db.rollback(t2)
        assert invariants.violations == []


class TestThreadConfinement:
    def test_foreign_thread_entry_raises(self):
        db = InstantDB()
        invariants.register_engine_thread(db, ident=-1)   # no thread has -1
        with pytest.raises(InvariantViolation, match="executor thread"):
            db.begin()

    def test_pinned_thread_entry_is_allowed(self):
        db = InstantDB()
        invariants.register_engine_thread(db)             # this very thread
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        txn = db.begin()
        db.rollback(txn)
        assert invariants.violations == []

    def test_unregistered_engine_is_unconfined(self):
        pinned, free = InstantDB(), InstantDB()
        invariants.register_engine_thread(pinned, ident=-1)
        free.execute("CREATE TABLE t (id INT PRIMARY KEY)")  # not pinned
        assert invariants.violations == []

    def test_unregister_releases_the_pin(self):
        db = InstantDB()
        invariants.register_engine_thread(db, ident=-1)
        invariants.unregister_engine_thread(db)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        assert invariants.violations == []

    def test_violation_names_thread_and_remedy(self):
        db = InstantDB()
        invariants.register_engine_thread(db, ident=-1)
        with pytest.raises(InvariantViolation) as excinfo:
            db.begin()
        message = str(excinfo.value)
        assert threading.current_thread().name in message
        assert "run_on_engine" in message


class TestServedEngineConfinement:
    def test_direct_call_into_served_engine_raises(self):
        engine = build_engine()
        server = ServerThread(engine).start()
        try:
            with pytest.raises(InvariantViolation, match="executor thread"):
                engine.execute("SELECT id FROM person")
        finally:
            server.stop(drain=False)

    def test_submit_routes_through_the_executor(self):
        engine = build_engine()
        server = ServerThread(engine).start()
        try:
            result = server.submit(engine.execute, "SELECT id FROM person")
            assert result.rows == []
            server.submit(engine.advance_time, 60.0)
        finally:
            server.stop(drain=False)
        assert invariants.violations == []

    def test_stop_unpins_the_engine(self):
        engine = build_engine()
        server = ServerThread(engine).start()
        server.stop(drain=False)
        result = engine.execute("SELECT id FROM person")
        assert result.rows == []
        assert invariants.violations == []


class TestPageHygiene:
    def test_unhygienic_page_is_refused_at_write_back(self):
        from repro.core.errors import StorageError
        from repro.storage.buffer import BufferPool
        from repro.storage.heap import HeapFile
        from repro.storage.pager import MemoryPager

        heap = HeapFile(BufferPool(MemoryPager(page_size=512), capacity=4))
        rid = heap.insert(b"record")
        heap.flush()                                    # a hygienic page passes
        heap.update(rid, b"r")
        heap.buffer_pool.get_page(rid.page_id)._buffer[200] = 9     # a stale byte
        with pytest.raises(StorageError, match="stale bytes"):
            heap.flush()
