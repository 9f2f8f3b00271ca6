"""A crash between a wave's page flush and its log scrub must not strand
accurate images in the log, nor bring one back to the heap.

Seeded reproducers.  Seven rows with unique salaries take their 1-hour step;
the process dies at the entry of ``WriteAheadLog.scrub_records`` — the
degraded pages are already durable, the INSERT images are not scrubbed yet
and the wave logged nothing (its synced pages are the record of its steps).
Each kill copies the data directory at that instant and recovery reopens
the copy (``die_copying``), so nothing the dying engine writes afterwards —
its abort path flushes the log — can settle anything.  After ``recover()``
every row is at level 1, and recovery's level rule scrubs every log image
less degraded than its row's heap record: the schedule derived from the heap
has the step done and never re-applies it.  A committed ``UPDATE`` ahead of
the wave is not redone over the more degraded record: its +1 image is at
level 0.  (With the ``DEGRADE`` record of format 9, appended ahead of the
page flush but flushed only by the wave's commit, such a kill left all seven
salaries in the log files and in ``forensic_image()``, and redo wrote the
``UPDATE``'s accurate image back onto the heap page.)  The same rule
finishes a scrub that a crash interrupted halfway, and a kill before the
page flush leaves the step pending: the next drain applies it once.
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.storage.serialization import encode_value

from ..conftest import die_copying, log_dir_bytes

ROWS = range(1, 8)

#: How the seven rows are inserted: by one statement (one cohort) or one a
#: second (seven cohorts).  Either way their step comes due in one wave, one
#: ``TableStore.degrade_many`` call.
COHORTS = ("one", "per_row")


def _salary(row_id: int) -> int:
    return 52_009 + 13 * row_id      # unique per row, so its bytes are traceable


def _log_bytes(data_dir) -> bytes:
    return log_dir_bytes(os.path.join(str(data_dir), "wal"))


def _page_bytes(data_dir) -> bytes:
    with open(os.path.join(str(data_dir), "pages.db"), "rb") as handle:
        return handle.read()


def _leaked(image: bytes):
    return [row_id for row_id in ROWS if encode_value(_salary(row_id)) in image]


def _open(data_dir) -> InstantDB:
    return InstantDB(data_dir=str(data_dir))


def _load(data_dir, cohorts) -> InstantDB:
    db = _open(data_dir)
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="salary_lcp"))
    db.execute("CREATE TABLE pay (id INT PRIMARY KEY, note TEXT, salary INT "
               "DEGRADABLE DOMAIN salary POLICY salary_lcp)")
    if cohorts == "one":
        db.executemany("INSERT INTO pay VALUES (?, ?, ?)",
                       [(row_id, "kept", _salary(row_id)) for row_id in ROWS])
    else:
        for row_id in ROWS:
            db.execute("INSERT INTO pay VALUES (?, ?, ?)",
                       params=(row_id, "kept", _salary(row_id)))
            db.advance_time(seconds=1)
    assert len(db.scheduler.cohorts()) == (1 if cohorts == "one" else len(ROWS))
    db.checkpoint()
    assert _leaked(_log_bytes(data_dir)) == list(ROWS)   # not due yet
    return db


def _kill_in_the_wave(db) -> None:
    """Run the 1-hour wave until the armed kill (``die_copying``) ends it."""
    with pytest.raises(KeyboardInterrupt):
        db.advance_time(hours=2)
    db.daemon.pause()                # abandon: no close(), no checkpoint


@pytest.mark.parametrize("cohorts", COHORTS)
def test_crash_at_scrub_entry_leaves_no_accurate_image_after_recovery(tmp_path, cohorts):
    live, dead = tmp_path / "live", tmp_path / "dead"
    db = _load(live, cohorts)
    db.wal.scrub_records = lambda *args, **kwargs: die_copying(live, dead)
    _kill_in_the_wave(db)
    assert _leaked(_log_bytes(dead)) == list(ROWS)

    reopened = _open(dead)
    report = reopened.recover()
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    # A page at the target level is a step done: the wave's seven are not
    # re-applied.
    assert report.overdue_steps_applied == 0
    assert _leaked(_log_bytes(dead)) == []
    assert _leaked(reopened.forensic_image()) == []
    reopened.close()


@pytest.mark.parametrize("cohorts", COHORTS)
def test_a_committed_update_is_not_redone_over_a_more_degraded_record(tmp_path, cohorts):
    """The UPDATE's −1/+1 images are at level 0, the heap's record at 1:
    redo keeps the record (which has the update already) and the level rule
    scrubs the images."""
    live, dead = tmp_path / "live", tmp_path / "dead"
    db = _load(live, cohorts)
    assert db.execute("UPDATE pay SET note = 'moved' WHERE id = 3") == 1
    db.wal.scrub_records = lambda *args, **kwargs: die_copying(live, dead)
    _kill_in_the_wave(db)
    assert 3 in _leaked(_log_bytes(dead))

    reopened = _open(dead)
    reopened.recover(drain=False)
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    assert {row.values["id"]: row.values["note"] for row in reopened.table_store("pay").scan()
            } == {row_id: "moved" if row_id == 3 else "kept" for row_id in ROWS}
    assert _leaked(_page_bytes(dead)) == []
    assert _leaked(_log_bytes(dead)) == []
    reopened.close()


def test_a_crash_before_the_page_flush_leaves_the_step_pending(tmp_path):
    """No degraded page reached the disk: recovery finds every row accurate
    at level 0, keeps its images (the only durable copy of the rows that
    logged them), and the next drain applies the step once."""
    live, dead = tmp_path / "live", tmp_path / "dead"
    db = _load(live, "one")
    db.buffer_pool.flush_page = lambda page_id: die_copying(live, dead)
    _kill_in_the_wave(db)

    reopened = _open(dead)
    report = reopened.recover()
    assert report.overdue_steps_applied == 0        # the log proves no later time
    assert reopened.level_histogram("pay", "salary") == {0: len(ROWS)}
    assert _leaked(_log_bytes(dead)) == list(ROWS)
    reopened.advance_time(hours=2)
    assert reopened.stats.degradation_steps_applied == len(ROWS)
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    assert _leaked(_log_bytes(dead)) == []
    assert _leaked(reopened.forensic_image()) == []
    reopened.close()


@pytest.mark.parametrize("cohorts", COHORTS)
def test_crash_inside_the_zeroing_pass_is_healed_by_recovery(tmp_path, cohorts):
    """Marks landed, no image zeroed yet: reopening finishes the job."""
    live, dead = tmp_path / "live", tmp_path / "dead"
    db = _load(live, cohorts)
    real_pwrite = os.pwrite

    def die_on_first_zero(fd, data, offset):
        if len(data) > 1 and not any(data):
            die_copying(live, dead)
        return real_pwrite(fd, data, offset)

    os.pwrite = die_on_first_zero
    try:
        _kill_in_the_wave(db)
    finally:
        os.pwrite = real_pwrite
    assert _leaked(_log_bytes(dead)) != []

    reopened = _open(dead)
    # The whole wave was marked: loading the log already finished the zeroing.
    assert _leaked(_log_bytes(dead)) == []
    reopened.recover()
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    assert _leaked(_log_bytes(dead)) == []
    assert _leaked(reopened.forensic_image()) == []
    reopened.close()


def _die_on_first_mark(real_pwrite, live, dead):
    def pwrite(fd, data, offset):
        if len(data) == 1:           # a scrub mark: the pending suffix is durable
            die_copying(live, dead)
        return real_pwrite(fd, data, offset)
    return pwrite


@pytest.mark.parametrize("cohorts", COHORTS)
def test_redo_finishes_the_scrub_even_without_a_drain(tmp_path, cohorts):
    """The wave's pages reached the disk, no scrub mark did: recovery's level
    rule sees rows stored more degraded than their images and scrubs them
    itself."""
    live, dead = tmp_path / "live", tmp_path / "dead"
    db = _load(live, cohorts)
    real_pwrite = os.pwrite
    os.pwrite = _die_on_first_mark(real_pwrite, live, dead)
    try:
        _kill_in_the_wave(db)
    finally:
        os.pwrite = real_pwrite

    reopened = _open(dead)
    reopened.recover(drain=False)
    degraded = sum(count for level, count in
                   reopened.level_histogram("pay", "salary").items() if level)
    assert degraded >= 1
    assert _leaked(_log_bytes(dead)) == []
    reopened.close()


def test_redo_of_a_removal_scrubs_the_rows_images(tmp_path):
    """DELETE of a never-degraded row, killed between its −1 entry reaching
    the disk and the scrub of the row's +1 image."""
    live, dead = tmp_path / "live", tmp_path / "dead"
    db = _load(live, "one")
    real_pwrite = os.pwrite
    os.pwrite = _die_on_first_mark(real_pwrite, live, dead)
    try:
        with pytest.raises(KeyboardInterrupt):
            db.execute("DELETE FROM pay WHERE id = 3")
    finally:
        os.pwrite = real_pwrite
    db.daemon.pause()
    assert 3 in _leaked(_log_bytes(dead))

    reopened = _open(dead)
    reopened.recover(drain=False)
    assert reopened.row_count("pay") == len(ROWS) - 1
    assert _leaked(_log_bytes(dead)) == [r for r in ROWS if r != 3]
    reopened.close()
