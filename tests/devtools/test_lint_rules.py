"""Per-rule reprolint fixtures: each rule gets code it must flag and code it
must leave alone.  Fixture trees are written under tmp_path with the anchor
path suffixes the rules key on (``server/``, ``storage/wal.py``, ...)."""

import textwrap

from repro.devtools import lint as lint_mod


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_rule(tmp_path, rule):
    return lint_mod.run([str(tmp_path)], rule_names=[rule])


class TestSentinelIdentity:
    def test_equality_comparison_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                if value == SUPPRESSED:
                    return None
                return value != REMOVED
        """)
        findings = run_rule(tmp_path, "sentinel-identity")
        assert len(findings) == 2
        assert all(f.rule == "sentinel-identity" for f in findings)
        assert "SUPPRESSED" in findings[0].message

    def test_membership_tests_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                return value in (SUPPRESSED, NULL) or value in SENTINELS
        """)
        assert len(run_rule(tmp_path, "sentinel-identity")) == 2

    def test_identity_comparison_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                return value is SUPPRESSED or value is not REMOVED
        """)
        assert run_rule(tmp_path, "sentinel-identity") == []

    def test_values_module_is_exempt(self, tmp_path):
        write(tmp_path, "core/values.py", """\
            def __eq__(self, other):
                return other == SUPPRESSED
        """)
        assert run_rule(tmp_path, "sentinel-identity") == []

    def test_attribute_sentinels_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(row):
                return row.value == values.SUPPRESSED
        """)
        assert len(run_rule(tmp_path, "sentinel-identity")) == 1


class TestExecutorConfinement:
    def test_direct_engine_call_in_async_def_flagged(self, tmp_path):
        write(tmp_path, "server/handlers.py", """\
            async def handle(self, frame):
                return self.engine.execute(frame.sql)
        """)
        findings = run_rule(tmp_path, "executor-confinement")
        assert len(findings) == 1
        assert "run_on_engine" in findings[0].message

    def test_session_method_call_flagged(self, tmp_path):
        write(tmp_path, "server/handlers.py", """\
            async def handle(self, session):
                session.commit()
        """)
        assert len(run_rule(tmp_path, "executor-confinement")) == 1

    def test_engine_construction_flagged(self, tmp_path):
        write(tmp_path, "server/boot.py", """\
            async def boot(path):
                return InstantDB(path)
        """)
        assert len(run_rule(tmp_path, "executor-confinement")) == 1

    def test_bound_method_passed_to_executor_clean(self, tmp_path):
        write(tmp_path, "server/handlers.py", """\
            async def handle(self, session):
                return await self.run_on_engine(session.execute, "SELECT 1")
        """)
        assert run_rule(tmp_path, "executor-confinement") == []

    def test_sync_def_and_nested_def_clean(self, tmp_path):
        write(tmp_path, "server/handlers.py", """\
            def sync_path(self):
                return self.engine.execute("SELECT 1")

            async def handle(self):
                def on_executor():
                    return self.engine.execute("SELECT 1")
                return await self.run_on_engine(on_executor)
        """)
        assert run_rule(tmp_path, "executor-confinement") == []

    def test_outside_server_package_ignored(self, tmp_path):
        write(tmp_path, "client/driver.py", """\
            async def handle(self):
                return self.engine.execute("SELECT 1")
        """)
        assert run_rule(tmp_path, "executor-confinement") == []


class TestLockDiscipline:
    def test_bare_acquire_release_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(lock):
                lock.acquire()
                lock.release()
        """)
        findings = run_rule(tmp_path, "lock-discipline")
        assert len(findings) == 2
        assert "with" in findings[0].message

    def test_2pl_manager_acquire_with_args_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(manager, txn_id, mode):
                return manager.acquire(txn_id, "trace", mode)
        """)
        assert run_rule(tmp_path, "lock-discipline") == []

    def test_raw_threading_lock_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            import threading
            guard = threading.Lock()
        """)
        findings = run_rule(tmp_path, "lock-discipline")
        assert len(findings) == 1
        assert "TrackedLock" in findings[0].message

    def test_raw_lock_allowed_inside_devtools(self, tmp_path):
        write(tmp_path, "devtools/internals.py", """\
            import threading
            guard = threading.RLock()
        """)
        assert run_rule(tmp_path, "lock-discipline") == []

    def test_unknown_tracked_lock_name_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            from repro.devtools.invariants import TrackedLock
            guard = TrackedLock("made.up.name")
        """)
        findings = run_rule(tmp_path, "lock-discipline")
        assert len(findings) == 1
        assert "hierarchy" in findings[0].message

    def test_documented_lock_name_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            from repro.devtools.invariants import TrackedLock
            guard = TrackedLock("server.sessions")

            def f():
                with guard:
                    return 1
        """)
        assert run_rule(tmp_path, "lock-discipline") == []


class TestNoSwallowedAbort:
    def test_pass_handler_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(engine):
                try:
                    engine.commit()
                except TransactionAborted:
                    pass
        """)
        findings = run_rule(tmp_path, "no-swallowed-abort")
        assert len(findings) == 1
        assert "TransactionAborted" in findings[0].message

    def test_bare_except_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(engine):
                try:
                    engine.commit()
                except:
                    return None
        """)
        assert len(run_rule(tmp_path, "no-swallowed-abort")) == 1

    def test_reraise_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(engine):
                try:
                    engine.commit()
                except TransactionAborted:
                    engine.cleanup()
                    raise
        """)
        assert run_rule(tmp_path, "no-swallowed-abort") == []

    def test_bound_name_used_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(engine, log):
                try:
                    engine.commit()
                except OperationalError as error:
                    log.warning("commit failed: %s", error)
        """)
        assert run_rule(tmp_path, "no-swallowed-abort") == []

    def test_real_work_in_body_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(engine, conn):
                try:
                    engine.commit()
                except DeadlockError:
                    conn.rollback()
        """)
        assert run_rule(tmp_path, "no-swallowed-abort") == []

    def test_unrelated_exception_ignored(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(mapping, key):
                try:
                    return mapping[key]
                except KeyError:
                    pass
        """)
        assert run_rule(tmp_path, "no-swallowed-abort") == []


class TestNoSwallowedIOError:
    def test_swallowed_oserror_around_io_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(handle):
                try:
                    handle.fsync()
                except OSError:
                    pass
        """)
        findings = run_rule(tmp_path, "no-swallowed-io-error")
        assert len(findings) == 1
        assert "OSError" in findings[0].message

    def test_swallowed_durability_error_flagged_anywhere(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(engine):
                try:
                    engine.commit_buffers()
                except DurabilityError:
                    return None
        """)
        assert len(run_rule(tmp_path, "no-swallowed-io-error")) == 1

    def test_swallowed_connection_error_around_socket_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(sock, data):
                try:
                    sock.sendall(data)
                except ConnectionResetError:
                    pass
        """)
        assert len(run_rule(tmp_path, "no-swallowed-io-error")) == 1

    def test_oserror_without_io_in_body_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(value):
                try:
                    return int(value)
                except OSError:
                    pass
        """)
        assert run_rule(tmp_path, "no-swallowed-io-error") == []

    def test_reraise_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(handle):
                try:
                    handle.flush()
                except OSError as exc:
                    raise DurabilityError(str(exc)) from exc
        """)
        assert run_rule(tmp_path, "no-swallowed-io-error") == []

    def test_bound_name_used_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(handle, log):
                try:
                    handle.flush()
                except OSError as error:
                    log.warning("flush failed: %s", error)
        """)
        assert run_rule(tmp_path, "no-swallowed-io-error") == []

    def test_suppression_comment_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            def f(sock):
                try:
                    sock.close()
                except OSError:  # reprolint: disable=no-swallowed-io-error -- best-effort close
                    pass
        """)
        assert run_rule(tmp_path, "no-swallowed-io-error") == []


class TestSingleFanout:
    FANOUT = """\
        class Engine:
            def _apply_delta(self, info, old, new):
                for index_info in info.indexes.values():
                    index_info.index.insert(new.values[index_info.column], new.row_key)
                    index_info.index.degrade_entries([])
                self.statistics.on_insert(info.name, new.values)
                self.scheduler.register((info.name, new.row_key), None, 0.0)
                self.scheduler.cancel((info.name, old.row_key))
    """

    def test_maintenance_inside_the_fanout_clean(self, tmp_path):
        write(tmp_path, "engine/database.py", self.FANOUT)
        assert run_rule(tmp_path, "single-fanout") == []

    def test_maintenance_elsewhere_flagged(self, tmp_path):
        write(tmp_path, "engine/database.py", """\
            def delete_row(self, info, stored, index):
                index.delete(stored.values["name"], stored.row_key)
                info.indexes["pk"].index.update(1, 2, stored.row_key)
                self.statistics.on_remove(info.name, stored.values)
                table_stats.on_value_change("name", "a", "b")
                self.scheduler.cancel((info.name, stored.row_key))
        """)
        findings = run_rule(tmp_path, "single-fanout")
        assert [f.line for f in findings] == [2, 3, 4, 5, 6]
        assert all("_apply_delta" in f.message for f in findings)

    def test_same_names_on_other_receivers_clean(self, tmp_path):
        write(tmp_path, "engine/database.py", """\
            def work(self, store, txn, values):
                store.insert(values, 0.0)
                store.delete(1, now=0.0)
                values.update(extra=1)
                self.statistics.register(store.schema)
                self.registry.register_domain(None)
                txn.on_abort(lambda: None)
                self.scheduler.defer(None, 1.0)
        """)
        assert run_rule(tmp_path, "single-fanout") == []

    def test_outside_the_engine_package_ignored(self, tmp_path):
        write(tmp_path, "query/statistics.py", """\
            def rebuild(self, rows):
                for values in rows:
                    self.on_insert(values)
        """)
        assert run_rule(tmp_path, "single-fanout") == []

    def test_real_engine_with_a_stray_statistics_call_fails(self, tmp_path):
        import repro.engine.database as database_module
        real = open(database_module.__file__, encoding="utf-8").read()
        write(tmp_path, "engine/database.py", real)
        assert run_rule(tmp_path, "single-fanout") == []
        anchor = "                self._apply_delta(info, [stored], None)\n"
        assert real.count(anchor) == 1
        write(tmp_path, "engine/database.py", real.replace(
            anchor,
            anchor + "                self.statistics.on_remove(table, [stored.values])\n"))
        findings = run_rule(tmp_path, "single-fanout")
        assert len(findings) == 1 and "on_remove" in findings[0].message


WAL_FIXTURE = """\
    class LogRecordType:
        BEGIN = "BEGIN"
        COMMIT = "COMMIT"
        INSERT = "INSERT"
        DEGRADE = "DEGRADE"
        SCRUB = "SCRUB"

    _SCRUB_EXEMPT = frozenset({
        LogRecordType.BEGIN,
        LogRecordType.COMMIT,
        LogRecordType.SCRUB,
    })

    _SCRUB_TARGETS = frozenset({
        LogRecordType.INSERT,
        LogRecordType.DEGRADE,
    })
"""

RECOVERY_FIXTURE = """\
    _REPLAY_IGNORED = frozenset({
        LogRecordType.SCRUB,
    })

    def _analysis(record, winners):
        if record.record_type is LogRecordType.BEGIN:
            winners.discard(record.txn_id)
        elif record.record_type is LogRecordType.COMMIT:
            winners.add(record.txn_id)

    def _redo(record, store):
        if record.record_type is LogRecordType.INSERT:
            store.replay_insert(record)
        elif record.record_type is LogRecordType.DEGRADE:
            store.replay_degrade(record)
"""


class TestWalExhaustive:
    def test_consistent_fixture_clean(self, tmp_path):
        write(tmp_path, "storage/wal.py", WAL_FIXTURE)
        write(tmp_path, "txn/recovery.py", RECOVERY_FIXTURE)
        assert run_rule(tmp_path, "wal-exhaustive") == []

    def test_unclassified_record_type_flagged(self, tmp_path):
        write(tmp_path, "storage/wal.py",
              WAL_FIXTURE.replace("        LogRecordType.COMMIT,\n", "", 1))
        write(tmp_path, "txn/recovery.py", RECOVERY_FIXTURE)
        findings = run_rule(tmp_path, "wal-exhaustive")
        assert len(findings) == 1
        assert "COMMIT" in findings[0].message
        assert "scrub" in findings[0].message

    def test_missing_classification_sets_flagged(self, tmp_path):
        source = WAL_FIXTURE.split("_SCRUB_TARGETS")[0]
        write(tmp_path, "storage/wal.py", source)
        findings = run_rule(tmp_path, "wal-exhaustive")
        assert any("_SCRUB_TARGETS" in f.message for f in findings)

    def test_deleting_replay_arm_flagged(self, tmp_path):
        # The acceptance scenario: drop the DEGRADE arm from _redo and the
        # rule must fail the build (scrub targets are redo-always).
        broken = RECOVERY_FIXTURE.replace(
            "        elif record.record_type is LogRecordType.DEGRADE:\n"
            "            store.replay_degrade(record)\n", "")
        write(tmp_path, "storage/wal.py", WAL_FIXTURE)
        write(tmp_path, "txn/recovery.py", broken)
        findings = run_rule(tmp_path, "wal-exhaustive")
        assert findings
        assert any("DEGRADE" in f.message and "_redo" in f.message
                   for f in findings)

    def test_replay_ignored_escape_hatch(self, tmp_path):
        # A record type with no replay arm passes only when listed in
        # _REPLAY_IGNORED (here: SCRUB); removing it from the set must flag.
        broken = RECOVERY_FIXTURE.replace("        LogRecordType.SCRUB,\n", "")
        write(tmp_path, "storage/wal.py", WAL_FIXTURE)
        write(tmp_path, "txn/recovery.py", broken)
        findings = run_rule(tmp_path, "wal-exhaustive")
        assert any("SCRUB" in f.message and "replay arm" in f.message
                   for f in findings)

    def test_real_tree_with_deleted_redo_arm_fails(self, tmp_path):
        # Same scenario against the real sources: renaming every DEGRADE
        # dispatch in recovery.py deletes its replay arm; the rule must fire.
        import repro.storage.wal as wal_module
        import repro.txn.recovery as recovery_module
        real_wal = open(wal_module.__file__, encoding="utf-8").read()
        real_recovery = open(recovery_module.__file__, encoding="utf-8").read()
        write(tmp_path, "storage/wal.py", real_wal)
        write(tmp_path, "txn/recovery.py",
              real_recovery.replace("LogRecordType.DEGRADE",
                                    "LogRecordType.UPDATE"))
        findings = run_rule(tmp_path, "wal-exhaustive")
        assert any("DEGRADE" in f.message for f in findings)

    def test_skips_silently_without_anchor_files(self, tmp_path):
        write(tmp_path, "mod.py", "x = 1\n")
        assert run_rule(tmp_path, "wal-exhaustive") == []


PROTOCOL_FIXTURE = """\
    PROTOCOL_VERSION = 1
    HELLO = 0x01
    QUERY = 0x02
    OK = 0x80

    FRAME_NAMES = {HELLO: "HELLO", QUERY: "QUERY", OK: "OK"}

    def _encode_into(out, value):
        out.append(b"i")
        out.append(b"s")

    def _decode_at(data, offset):
        if data[offset:offset + 1] == b"i":
            return 1
        if data[offset:offset + 1] == b"s":
            return "s"
"""

SERVER_FIXTURE = """\
    from . import protocol

    async def dispatch(frame):
        if frame.kind == protocol.HELLO:
            return protocol.OK
        if frame.kind == protocol.QUERY:
            return protocol.OK
"""

CLIENT_FIXTURE = """\
    from ..server import protocol

    def request(sock):
        sock.send(protocol.HELLO)
        sock.send(protocol.QUERY)
        return protocol.OK
"""


class TestFrameTagExhaustive:
    def test_consistent_fixture_clean(self, tmp_path):
        write(tmp_path, "server/protocol.py", PROTOCOL_FIXTURE)
        write(tmp_path, "server/server.py", SERVER_FIXTURE)
        write(tmp_path, "client/remote.py", CLIENT_FIXTURE)
        assert run_rule(tmp_path, "frame-tag-exhaustive") == []

    def test_frame_missing_from_frame_names(self, tmp_path):
        write(tmp_path, "server/protocol.py",
              PROTOCOL_FIXTURE.replace('QUERY: "QUERY", ', ""))
        findings = run_rule(tmp_path, "frame-tag-exhaustive")
        assert any("FRAME_NAMES" in f.message and "QUERY" in f.message
                   for f in findings)

    def test_frame_unreferenced_by_server_flagged(self, tmp_path):
        write(tmp_path, "server/protocol.py", PROTOCOL_FIXTURE)
        write(tmp_path, "server/server.py",
              SERVER_FIXTURE.replace(
                  "        if frame.kind == protocol.QUERY:\n"
                  "            return protocol.OK\n", ""))
        findings = run_rule(tmp_path, "frame-tag-exhaustive")
        assert len(findings) == 1
        assert "QUERY" in findings[0].message
        assert findings[0].path.endswith("server/server.py")

    def test_frame_unreferenced_by_client_flagged(self, tmp_path):
        write(tmp_path, "server/protocol.py", PROTOCOL_FIXTURE)
        write(tmp_path, "client/remote.py",
              CLIENT_FIXTURE.replace("        sock.send(protocol.QUERY)\n", ""))
        findings = run_rule(tmp_path, "frame-tag-exhaustive")
        assert any("remote driver" in f.message and "QUERY" in f.message
                   for f in findings)

    def test_asymmetric_value_tag_flagged(self, tmp_path):
        write(tmp_path, "server/protocol.py",
              PROTOCOL_FIXTURE.replace(
                  '        if data[offset:offset + 1] == b"s":\n'
                  '            return "s"\n', ""))
        findings = run_rule(tmp_path, "frame-tag-exhaustive")
        assert len(findings) == 1
        assert "'s'" in findings[0].message and "_decode_at" in findings[0].message

    def test_non_frame_constants_ignored(self, tmp_path):
        # PROTOCOL_VERSION / MAX_FRAME_BYTES are not frames; no dispatch
        # arm is demanded for them.
        write(tmp_path, "server/protocol.py", PROTOCOL_FIXTURE)
        write(tmp_path, "server/server.py", SERVER_FIXTURE)
        findings = run_rule(tmp_path, "frame-tag-exhaustive")
        assert not any("PROTOCOL_VERSION" in f.message for f in findings)


class TestUnusedImport:
    def test_unread_names_flagged(self, tmp_path):
        write(tmp_path, "mod.py", """\
            import os
            import json as codec
            from typing import Any, Dict
            from .values import NULL, SUPPRESSED

            def f(value: Any) -> bool:
                return value is NULL
        """)
        findings = run_rule(tmp_path, "unused-import")
        assert sorted(f.message.split("'")[1] for f in findings) == \
            ["Dict", "SUPPRESSED", "codec", "os"]
        assert all(f.rule == "unused-import" for f in findings)

    def test_names_read_anywhere_are_clean(self, tmp_path):
        write(tmp_path, "mod.py", """\
            from __future__ import annotations
            import os.path
            from typing import TYPE_CHECKING, Optional
            if TYPE_CHECKING:
                from .engine import InstantDB

            def f(db: "Optional[InstantDB]") -> str:
                return os.path.join("a", "b")
        """)
        assert run_rule(tmp_path, "unused-import") == []

    def test_all_exports_count_as_use(self, tmp_path):
        write(tmp_path, "mod.py", """\
            from .values import NULL, SUPPRESSED
            __all__ = ["NULL"]
            __all__ += ["SUPPRESSED"]
        """)
        assert run_rule(tmp_path, "unused-import") == []

    def test_package_init_reexports_and_explicit_reexports_are_clean(self, tmp_path):
        write(tmp_path, "pkg/__init__.py", """\
            from .values import NULL, SUPPRESSED
        """)
        write(tmp_path, "pkg/mod.py", """\
            from .values import NULL as NULL
        """)
        assert run_rule(tmp_path, "unused-import") == []

    def test_a_shadowing_string_is_not_a_use(self, tmp_path):
        write(tmp_path, "mod.py", """\
            from .values import SUPPRESSED

            MESSAGE = "SUPPRESSED rows are kept"
        """)
        assert len(run_rule(tmp_path, "unused-import")) == 1
