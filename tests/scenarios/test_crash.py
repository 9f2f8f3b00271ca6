"""Seeded kill-offset sweep: crash anywhere in the wave, recover, compare.

A seeded macro-workload runs on two identical engines over separate data
directories.  The twin applies a 10-day degradation wave first, counting how
many WAL appends the wave costs; the victim is then killed at a seeded
offset inside that span — each sweep stratum covers a different slice of the
wave, so together the sweep samples kill points across the *whole* WAL
rather than a fixed handful near the start.  ``REPRO_CRASH_SWEEP`` widens
the sweep (default 3 strata) for soak runs.

A second sweep kills the victim *inside* one of the wave's log scrubs — after
the scrub marks are written, between two image zeroings, before the final
fsync, and before the SCRUB audit record — where a half-scrubbed segment must
recover to "scrubbed", never to "accurate".

A third sweep kills the victim at the seams of one of the wave's batches —
after its DEGRADE chunk records are appended and before any page is flushed,
after the page flush and before the scrub, after the scrub and before the
SCHED_STEP record, and at the commit — where the chunk record, the degraded
pages and the schedule must never disagree in a way recovery cannot settle.

The victim's directory is reopened **cold** with one-call recovery — the
catalog comes back from its WAL CATALOG record, no DDL re-run — and must
(a) satisfy the retention invariant, (b) leak nothing forensically, and
(c) answer every read-back query identically to its never-crashed twin.
"""

import os
import random

import pytest

from repro.api.connection import connect as local_connect
from repro.engine.database import InstantDB
from repro.scenarios.driver import canonical_rows
from repro.scenarios import (
    InclusionGenerator,
    InclusionScenario,
    OpStream,
    ScenarioVariant,
    check_engine,
    retention_report,
    run_op,
)

DAY = 86400.0
SCALE = 30
PREFIX_OPS = 60
SWEEP = int(os.environ.get("REPRO_CRASH_SWEEP", "3"))
BASE_SEED = int(os.environ.get("REPRO_CRASH_SEED", "101"))


def arm_crash(db: InstantDB, appends_left: int) -> None:
    """Kill the process (KeyboardInterrupt) after ``appends_left`` more WAL
    appends — between a record hitting the log and the wave completing."""
    original = db.wal.append
    state = {"left": appends_left}

    def crashing_append(*args, **kwargs):
        if state["left"] <= 0:
            raise KeyboardInterrupt
        state["left"] -= 1
        return original(*args, **kwargs)

    db.wal.append = crashing_append


def count_appends(db: InstantDB):
    """Count WAL appends from now on; returns ``(counter_dict, restore)``."""
    original = db.wal.append
    state = {"count": 0}

    def counting_append(*args, **kwargs):
        state["count"] += 1
        return original(*args, **kwargs)

    db.wal.append = counting_append
    return state, lambda: setattr(db.wal, "append", original)


def crash(db: InstantDB) -> None:
    """Abandon without close(): no checkpoint, no final WAL flush."""
    db.daemon.pause()


#: Kill points inside one zeroing pass of ``WriteAheadLog._zero_images``.
SCRUB_KILL_POINTS = ("after_marks", "mid_zeroing", "before_fsync",
                     "before_scrub_append")


def count_zeroing_passes(db: InstantDB):
    """Count the log's zeroing passes from now on; ``(counter, restore)``."""
    original = db.wal._zero_images
    state = {"count": 0}

    def counting():
        state["count"] += 1
        return original()

    db.wal._zero_images = counting
    return state, lambda: setattr(db.wal, "_zero_images", original)


def arm_scrub_crash(db: InstantDB, point: str, nth_pass: int) -> None:
    """Kill the process at ``point`` of the ``nth_pass``-th zeroing pass."""
    zero_images, append = db.wal._zero_images, db.wal.append
    state = {"passes": 0, "fsyncs": 0, "zeroes": 0, "armed": False}
    real_pwrite, real_fsync = os.pwrite, os.fsync

    def pwrite(fd, data, offset):
        if len(data) > 1 and not any(data):
            state["zeroes"] += 1
            if point == "mid_zeroing" and state["zeroes"] == 2:
                raise KeyboardInterrupt
        return real_pwrite(fd, data, offset)

    def fsync(fd):
        state["fsyncs"] += 1
        # (A pass with a single image has no "between two zeroings": that
        # kill then falls at the final fsync too.)
        if (point, state["fsyncs"]) in (("after_marks", 1), ("mid_zeroing", 2),
                                        ("before_fsync", 2)):
            raise KeyboardInterrupt
        return real_fsync(fd)

    def killing_pass():
        state["passes"] += 1
        if state["passes"] != nth_pass:
            return zero_images()
        os.pwrite, os.fsync = pwrite, fsync
        try:
            zero_images()
        finally:
            os.pwrite, os.fsync = real_pwrite, real_fsync
        state["armed"] = point == "before_scrub_append"

    def killing_append(record_type, *args, **kwargs):
        if state["armed"] and record_type.name == "SCRUB":
            raise KeyboardInterrupt
        return append(record_type, *args, **kwargs)

    db.wal._zero_images = killing_pass
    db.wal.append = killing_append


#: Kill points at the seams of one wave batch (``_apply_degradation_batch``).
WAVE_KILL_POINTS = ("after_chunk_append", "after_page_flush", "after_scrub",
                    "at_commit")


def watch_wave_batches(db: InstantDB, on_batch=None, on_append=None):
    """Call ``on_batch(n)`` when the ``n``-th system transaction that logs a
    DEGRADE chunk appends its first one, ``on_append(record type name)`` before
    every append; returns ``(counter_dict, restore)``."""
    original = db.wal.append
    state = {"count": 0, "txn": None}

    def watching_append(record_type, txn_id=0, **kwargs):
        if record_type.name == "DEGRADE" and txn_id != state["txn"]:
            state["txn"] = txn_id
            state["count"] += 1
            if on_batch is not None:
                on_batch(state["count"])
        if on_append is not None:
            on_append(record_type.name)
        return original(record_type, txn_id, **kwargs)

    db.wal.append = watching_append
    return state, lambda: setattr(db.wal, "append", original)


def arm_wave_crash(db: InstantDB, point: str, nth_batch: int) -> None:
    """Kill the process at ``point`` of the ``nth_batch``-th wave batch."""
    state = {"armed": False}
    flush_page, scrub_records = db.buffer_pool.flush_page, db.wal.scrub_records

    def on_batch(count):
        state["armed"] = count == nth_batch

    def on_append(name):
        if state["armed"] and (point, name) in (("after_scrub", "SCHED_STEP"),
                                                ("at_commit", "COMMIT")):
            raise KeyboardInterrupt

    def killing_flush_page(page_id):
        if state["armed"] and point == "after_chunk_append":
            raise KeyboardInterrupt
        return flush_page(page_id)

    def killing_scrub(keys, now=0.0):
        if state["armed"] and point == "after_page_flush":
            raise KeyboardInterrupt
        return scrub_records(keys, now=now)

    watch_wave_batches(db, on_batch, on_append)
    db.buffer_pool.flush_page = killing_flush_page
    db.wal.scrub_records = killing_scrub


@pytest.mark.parametrize("point", WAVE_KILL_POINTS)
def test_crash_at_a_seam_of_a_wave_batch_recovers_to_twin_equivalence(
        tmp_path, point):
    kill_seed = BASE_SEED + 13 * WAVE_KILL_POINTS.index(point)

    def arm(victim, twin_counts):
        batches = twin_counts["wave_batches"]
        assert batches > 0
        nth_batch = random.Random(kill_seed).randrange(1, batches + 1)
        arm_wave_crash(victim, point, nth_batch)
        return f"point={point} batch={nth_batch}/{batches}"

    run_crash_case(tmp_path, kill_seed, arm)


@pytest.mark.parametrize("stratum", range(SWEEP))
def test_mid_wave_crash_recovers_to_twin_equivalence(tmp_path, stratum):
    kill_seed = BASE_SEED + 101 * stratum

    def arm(victim, twin_counts):
        wave_appends = twin_counts["appends"]
        assert wave_appends > 0
        # The kill offset is drawn from this stratum's slice of [0, appends)
        # — the sweep as a whole covers the entire wave, not just its first
        # few records.
        lo = wave_appends * stratum // SWEEP
        hi = max(lo + 1, wave_appends * (stratum + 1) // SWEEP)
        kill_after = random.Random(kill_seed).randrange(lo, hi)
        arm_crash(victim, kill_after)
        return f"kill_after={kill_after}/{wave_appends}"

    run_crash_case(tmp_path, kill_seed, arm)


@pytest.mark.parametrize("point", SCRUB_KILL_POINTS)
def test_crash_inside_a_scrub_recovers_to_twin_equivalence(tmp_path, point):
    kill_seed = BASE_SEED + 7 * SCRUB_KILL_POINTS.index(point)

    def arm(victim, twin_counts):
        passes = twin_counts["zeroing_passes"]
        assert passes > 0
        nth_pass = random.Random(kill_seed).randrange(1, passes + 1)
        arm_scrub_crash(victim, point, nth_pass)
        return f"point={point} pass={nth_pass}/{passes}"

    run_crash_case(tmp_path, kill_seed, arm)


def run_crash_case(tmp_path, kill_seed, arm):
    """Load twins, run the killer wave on the twin, kill the victim where
    ``arm(victim engine, twin's wave counts)`` says, recover, compare."""
    scenario = InclusionScenario(SCALE)
    generator = InclusionGenerator(scenario, seed=kill_seed)
    salaries = generator.sensitive_salaries()

    victim = ScenarioVariant("compiled", scenario,
                             data_dir=str(tmp_path / "victim"))
    twin = ScenarioVariant("compiled", scenario,
                           data_dir=str(tmp_path / "twin"))
    generator.load(victim.connection)
    generator.load(twin.connection)

    # Identical mixed prefix on both engines (waves excluded: the clock must
    # still be at zero when the killer wave fires).
    stream = OpStream(scenario, seed=kill_seed, count=PREFIX_OPS)
    prefix = [op for op in stream.ops()
              if op.kind not in ("wave", "forensic")]
    for op in prefix:
        run_op(victim, op)
        run_op(twin, op)

    # The killer wave: 10 days due at once.  The twin runs it first, counting
    # its WAL appends; the engines are deterministic over identical state, so
    # the victim's wave costs the same number (and as many zeroing passes).
    appends, restore_appends = count_appends(twin.engine)
    batches, restore_batches = watch_wave_batches(twin.engine)
    passes, restore_passes = count_zeroing_passes(twin.engine)
    twin.advance(10 * DAY)
    restore_batches()
    restore_appends()
    restore_passes()

    kill = arm(victim.engine, {"appends": appends["count"],
                               "wave_batches": batches["count"],
                               "zeroing_passes": passes["count"]})
    with pytest.raises(KeyboardInterrupt):
        victim.advance(10 * DAY)
    crash(victim.engine)

    # Reopen the directory cold: one-call recovery restores the catalog from
    # the WAL's CATALOG record (no DDL re-run), replays the heap, and drains
    # the overdue schedule.
    recovered = InstantDB(data_dir=str(tmp_path / "victim"))
    report = recovered.recover(drain=True)
    context = f"kill_seed={kill_seed} {kill}"
    assert report.registrations > 0, context
    assert recovered.catalog.tables(), "catalog did not survive the crash"

    # Clock skew between the twins is possible (the victim may have died
    # before its clock advance was durable) — align to the later clock.
    twin_now = twin.engine.clock.now()
    recovered_now = recovered.clock.now()
    if recovered_now < twin_now:
        recovered.advance_time(twin_now - recovered_now)
    elif twin_now < recovered_now:
        twin.advance(recovered_now - twin_now)

    try:
        # (a) retention invariant holds on the recovered engine
        violations = check_engine(recovered)
        assert violations == [], (context, violations[:3])
        # (b) nothing expired is forensically recoverable, and the forensic
        # counters agree with the never-crashed twin
        assert retention_report(recovered, salaries) == \
            retention_report(twin.engine, salaries) == \
            {"violations": 0, "leaks": 0}, context
        # (c) every read-back answers identically to the twin
        read_backs = [op for op in OpStream(scenario, seed=kill_seed + 7,
                                            count=60).ops()
                      if op.kind in ("point_read", "range_scan", "join",
                                     "aggregate")]
        assert read_backs
        conn = local_connect(engine=recovered)
        try:
            for op in read_backs:
                expected = twin.execute(op.sql, op.params,
                                        purpose=op.purpose).fetchall()
                twin.commit()
                actual = conn.execute(op.sql, op.params,
                                      purpose=op.purpose).fetchall()
                conn.commit()
                assert canonical_rows(actual, op.ordered) == \
                    canonical_rows(expected, op.ordered), \
                    (context, op.describe())
        finally:
            conn.close()
    finally:
        # The victim stays abandoned (a crashed process never close()s);
        # its directory now belongs to ``recovered``.
        recovered.close()
        twin.close()
