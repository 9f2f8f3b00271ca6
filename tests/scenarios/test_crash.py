"""Seeded kill-offset sweep: crash anywhere in the wave, recover, compare.

A seeded macro-workload runs on two identical engines over separate data
directories.  The twin applies a 10-day degradation wave first, counting how
many WAL appends and heap page flushes the wave costs (a wave logs no record
of its steps: its page flushes are most of its durable events); the victim
is then killed at a seeded offset inside that span — each sweep stratum
covers a different slice of the wave, so together the sweep samples kill
points across the *whole* wave rather than a fixed handful near the start.  ``REPRO_CRASH_SWEEP`` widens
the sweep (default 3 strata) for soak runs.

A second sweep kills the victim *inside* one of the wave's log scrubs — after
the scrub marks are written, between two image zeroings, before the final
fsync, and before the SCRUB audit record — where a half-scrubbed segment must
recover to "scrubbed", never to "accurate".

A third sweep kills the victim at the seams of one of the wave's batches —
at its first page flush, at its scrub (the pages synced, no image scrubbed)
and at the commit of a batch that removes rows — freezing the disk at the
instant of death: the data directory is copied there (``die_copying``) and
the copy recovered, so nothing the dying engine writes afterwards settles
anything.  A wave logs no record of its steps — its synced pages are their
record — so recovery's level rule alone must settle what a kill leaves.

The victim's directory is reopened **cold** with one-call recovery — the
catalog comes back from its WAL CATALOG record, no DDL re-run — and must
(a) satisfy the retention invariant, (b) leak nothing forensically, and
(c) answer every read-back query identically to its never-crashed twin.
"""

import os
import random

import pytest

from ..conftest import die_copying

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


def watch_events(db: InstantDB, on_event):
    """Call ``on_event()`` ahead of every WAL append and heap page flush from
    now on; returns a function that restores both."""
    append, flush_page = db.wal.append, db.buffer_pool.flush_page

    def watching_append(*args, **kwargs):
        on_event()
        return append(*args, **kwargs)

    def watching_flush_page(*args, **kwargs):
        on_event()
        return flush_page(*args, **kwargs)

    def restore():
        db.wal.append, db.buffer_pool.flush_page = append, flush_page

    db.wal.append, db.buffer_pool.flush_page = watching_append, watching_flush_page
    return restore


def arm_crash(db: InstantDB, events_left: int) -> None:
    """Kill the process (KeyboardInterrupt) after ``events_left`` more WAL
    appends and heap page flushes — anywhere between the wave's first page
    write and its last record."""
    state = {"left": events_left}

    def crash_when_due():
        if state["left"] <= 0:
            raise KeyboardInterrupt
        state["left"] -= 1

    watch_events(db, crash_when_due)


def count_events(db: InstantDB):
    """Count WAL appends and heap page flushes from now on; returns
    ``(counter_dict, restore)``."""
    state = {"count": 0}

    def count():
        state["count"] += 1

    return state, watch_events(db, count)


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


#: Kill points at the seams of one wave batch (``_apply_degradation_batch``),
#: each with the offset of the seed that draws its batch and the killer
#: wave's span in days: a batch removes rows only where a tuple reaches the
#: end of a removing life cycle — an employee record's, 75 days.
WAVE_KILL_POINTS = {"at_page_flush": (0, 10), "at_scrub": (13, 10),
                    "at_removing_commit": (39, 80)}


def watch_wave_batches(db: InstantDB, on_batch=None, on_commit=None):
    """Count the wave's batches (calls of the daemon's applier) and the
    commits inside them — a batch that removes rows commits, one that does
    not logs nothing to commit: ``on_batch(n)`` as the ``n``-th batch
    begins, ``on_commit(n)`` before the ``n``-th such COMMIT is appended;
    returns ``(counter_dict, restore)``."""
    applier, append = db.daemon.applier, db.wal.append
    state = {"batches": 0, "commits": 0, "inside": False}

    def watching_applier(table, steps):
        state["batches"] += 1
        if on_batch is not None:
            on_batch(state["batches"])
        state["inside"] = True
        try:
            return applier(table, steps)
        finally:
            state["inside"] = False

    def watching_append(record_type, *args, **kwargs):
        if state["inside"] and record_type.name == "COMMIT":
            state["commits"] += 1
            if on_commit is not None:
                on_commit(state["commits"])
        return append(record_type, *args, **kwargs)

    def restore():
        db.daemon.applier, db.wal.append = applier, append

    db.daemon.applier, db.wal.append = watching_applier, watching_append
    return state, restore


def arm_wave_crash(db: InstantDB, point: str, nth: int, data_dir, frozen) -> None:
    """Kill the process at ``point`` of the ``nth`` wave batch (of the
    ``nth`` removing one, at its commit), copying ``data_dir`` to ``frozen``
    at that instant."""
    state = {"armed": False}
    flush_page, scrub_records = db.buffer_pool.flush_page, db.wal.scrub_records

    def on_batch(count):
        state["armed"] = count == nth

    def on_commit(count):
        if point == "at_removing_commit" and count == nth:
            die_copying(data_dir, frozen)

    def killing_flush_page(page_id):
        if state["armed"] and point == "at_page_flush":
            die_copying(data_dir, frozen)
        return flush_page(page_id)

    def killing_scrub(keys, now=0.0):
        if state["armed"] and point == "at_scrub":
            die_copying(data_dir, frozen)
        return scrub_records(keys, now=now)

    watch_wave_batches(db, on_batch, on_commit)
    db.buffer_pool.flush_page = killing_flush_page
    db.wal.scrub_records = killing_scrub


@pytest.mark.parametrize("point", WAVE_KILL_POINTS)
def test_crash_at_a_seam_of_a_wave_batch_recovers_to_twin_equivalence(
        tmp_path, point):
    offset, days = WAVE_KILL_POINTS[point]
    kill_seed = BASE_SEED + offset

    def arm(victim, twin_counts):
        batches = twin_counts["removing_batches" if point == "at_removing_commit"
                              else "wave_batches"]
        assert batches > 0
        nth = random.Random(kill_seed).randrange(1, batches + 1)
        arm_wave_crash(victim, point, nth, tmp_path / "victim", tmp_path / "frozen")
        return f"point={point} batch={nth}/{batches}"

    run_crash_case(tmp_path, kill_seed, arm, days * DAY)


@pytest.mark.parametrize("stratum", range(SWEEP))
def test_mid_wave_crash_recovers_to_twin_equivalence(tmp_path, stratum):
    kill_seed = BASE_SEED + 101 * stratum

    def arm(victim, twin_counts):
        wave_events = twin_counts["events"]
        assert wave_events > 0
        # The kill offset is drawn from this stratum's slice of [0, events)
        # — the sweep as a whole covers the entire wave, not just its first
        # few writes.
        lo = wave_events * stratum // SWEEP
        hi = max(lo + 1, wave_events * (stratum + 1) // SWEEP)
        kill_after = random.Random(kill_seed).randrange(lo, hi)
        arm_crash(victim, kill_after)
        return f"kill_after={kill_after}/{wave_events}"

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


def run_crash_case(tmp_path, kill_seed, arm, span=10 * DAY):
    """Load twins, run the killer wave — ``span`` due at once — on the
    twin, kill the victim where ``arm(victim engine, twin's wave counts)``
    says, recover, compare."""
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

    # The killer wave: ``span`` due at once.  The twin runs it first, counting
    # its WAL appends and page flushes; the engines are deterministic over
    # identical state, so the victim's wave costs the same number (and as
    # many zeroing passes).
    events, restore_events = count_events(twin.engine)
    batches, restore_batches = watch_wave_batches(twin.engine)
    passes, restore_passes = count_zeroing_passes(twin.engine)
    twin.advance(span)
    restore_batches()
    restore_events()
    restore_passes()

    kill = arm(victim.engine, {"events": events["count"],
                               "wave_batches": batches["batches"],
                               "removing_batches": batches["commits"],
                               "zeroing_passes": passes["count"]})
    with pytest.raises(KeyboardInterrupt):
        victim.advance(span)
    crash(victim.engine)

    # Reopen the directory cold — the copy a kill froze, where it made one:
    # one-call recovery restores the catalog from the WAL's CATALOG record
    # (no DDL re-run), replays the heap, and drains the overdue schedule.
    frozen = tmp_path / "frozen"
    recovered = InstantDB(data_dir=str(frozen if frozen.exists() else tmp_path / "victim"))
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
        # its directory (or the frozen copy) now belongs to ``recovered``.
        recovered.close()
        twin.close()
