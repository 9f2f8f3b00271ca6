"""A crash between a wave's page flush and its log scrub must not strand
accurate images in the log.

Seeded reproducer.  Seven rows with unique salaries take their 1-hour step;
the process dies at the entry of ``WriteAheadLog.scrub_records`` — the
degraded pages are already durable, the INSERT images are not scrubbed yet
and the wave's system transaction never commits.  After reopen +
``recover()`` every row is at level 1, and a row the heap holds at the level
its ``DEGRADE`` chunk logged has its images scrubbed by recovery itself: the
schedule derived from the heap has that step done and never re-applies it.
(Before the fix a re-applied step that found ``to_level == from_level``
returned without handing the row to the scrub, so the accurate salaries
stayed in the log file, and in ``forensic_image()``, until the rows' *next*
step a day later.)  The same path finishes a scrub that a crash interrupted
halfway.
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.storage.serialization import encode_value

from ..conftest import log_dir_bytes

ROWS = range(1, 8)

#: How the seven rows are inserted: by one statement (one cohort) or one a
#: second (seven cohorts).  Either way their step comes due in one wave, one
#: ``TableStore.degrade_many`` call.
COHORTS = ("one", "per_row")


def _salary(row_id: int) -> int:
    return 52_009 + 13 * row_id      # unique per row, so its bytes are traceable


def _log_bytes(data_dir) -> bytes:
    return log_dir_bytes(os.path.join(str(data_dir), "wal"))


def _leaked(image: bytes):
    return [row_id for row_id in ROWS if encode_value(_salary(row_id)) in image]


def _open(data_dir) -> InstantDB:
    return InstantDB(data_dir=str(data_dir))


def _load(tmp_path, cohorts) -> InstantDB:
    db = _open(tmp_path)
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="salary_lcp"))
    db.execute("CREATE TABLE pay (id INT PRIMARY KEY, salary INT "
               "DEGRADABLE DOMAIN salary POLICY salary_lcp)")
    if cohorts == "one":
        db.executemany("INSERT INTO pay VALUES (?, ?)",
                       [(row_id, _salary(row_id)) for row_id in ROWS])
    else:
        for row_id in ROWS:
            db.execute("INSERT INTO pay VALUES (?, ?)", params=(row_id, _salary(row_id)))
            db.advance_time(seconds=1)
    assert len(db.scheduler.cohorts()) == (1 if cohorts == "one" else len(ROWS))
    db.checkpoint()
    assert _leaked(_log_bytes(tmp_path)) == list(ROWS)   # not due yet
    return db


@pytest.mark.parametrize("cohorts", COHORTS)
def test_crash_at_scrub_entry_leaves_no_accurate_image_after_recovery(tmp_path, cohorts):
    db = _load(tmp_path, cohorts)

    def die(*args, **kwargs):
        raise KeyboardInterrupt      # the process is gone: pages durable, log not scrubbed

    db.wal.scrub_records = die
    with pytest.raises(KeyboardInterrupt):
        db.advance_time(hours=2)
    db.daemon.pause()                # abandon: no close(), no checkpoint
    assert _leaked(_log_bytes(tmp_path)) == list(ROWS)

    reopened = _open(tmp_path)
    report = reopened.recover()
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    # A page at the target level is a step done: the wave's seven are not
    # re-applied.
    assert report.overdue_steps_applied == 0
    assert _leaked(_log_bytes(tmp_path)) == []
    assert _leaked(reopened.forensic_image()) == []
    reopened.close()


@pytest.mark.parametrize("cohorts", COHORTS)
def test_crash_inside_the_zeroing_pass_is_healed_by_recovery(tmp_path, cohorts):
    """Marks landed, no image zeroed yet: reopening finishes the job."""
    db = _load(tmp_path, cohorts)
    real_pwrite = os.pwrite

    def die_on_first_zero(fd, data, offset):
        if len(data) > 1 and not any(data):
            raise KeyboardInterrupt
        return real_pwrite(fd, data, offset)

    os.pwrite = die_on_first_zero
    try:
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(hours=2)
    finally:
        os.pwrite = real_pwrite
    db.daemon.pause()
    assert _leaked(_log_bytes(tmp_path)) != []

    reopened = _open(tmp_path)
    # The whole wave was marked: loading the log already finished the zeroing.
    assert _leaked(_log_bytes(tmp_path)) == []
    reopened.recover()
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    assert _leaked(_log_bytes(tmp_path)) == []
    assert _leaked(reopened.forensic_image()) == []
    reopened.close()


def _die_on_first_mark(real_pwrite):
    def pwrite(fd, data, offset):
        if len(data) == 1:           # a scrub mark: the pending suffix is durable
            raise KeyboardInterrupt
        return real_pwrite(fd, data, offset)
    return pwrite


@pytest.mark.parametrize("cohorts", COHORTS)
def test_redo_finishes_the_scrub_even_without_a_drain(tmp_path, cohorts):
    """The wave's DEGRADE records reached the disk, no mark did: recovery's
    redo pass sees rows at their logged level and scrubs them itself."""
    db = _load(tmp_path, cohorts)
    real_pwrite = os.pwrite
    os.pwrite = _die_on_first_mark(real_pwrite)
    try:
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(hours=2)
    finally:
        os.pwrite = real_pwrite
    db.daemon.pause()

    reopened = _open(tmp_path)
    reopened.recover(drain=False)
    degraded = sum(count for level, count in
                   reopened.level_histogram("pay", "salary").items() if level)
    assert degraded >= 1
    assert _leaked(_log_bytes(tmp_path)) == []
    reopened.close()


def test_redo_of_a_removal_scrubs_the_rows_images(tmp_path):
    """DELETE of a never-degraded row, killed between its −1 entry reaching
    the disk and the scrub of the row's +1 image."""
    db = _load(tmp_path, "one")
    real_pwrite = os.pwrite
    os.pwrite = _die_on_first_mark(real_pwrite)
    try:
        with pytest.raises(KeyboardInterrupt):
            db.execute("DELETE FROM pay WHERE id = 3")
    finally:
        os.pwrite = real_pwrite
    db.daemon.pause()
    assert 3 in _leaked(_log_bytes(tmp_path))

    reopened = _open(tmp_path)
    reopened.recover(drain=False)
    assert reopened.row_count("pay") == len(ROWS) - 1
    assert _leaked(_log_bytes(tmp_path)) == [r for r in ROWS if r != 3]
    reopened.close()
