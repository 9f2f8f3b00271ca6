"""A crash between a wave's page flush and its log scrub must not strand
accurate images in the log.

Seeded reproducer.  Seven rows with unique salaries take their 1-hour step;
the process dies at the entry of ``WriteAheadLog.scrub_records`` — the
degraded pages are already durable, the INSERT images are not scrubbed yet
and the wave's system transaction never commits.  After reopen +
``recover()`` every row is at level 1 and the seven overdue steps were
re-applied, but each re-applied step finds ``to_level == from_level``.  Before
the fix such a step returned without handing the row to the scrub, so the
accurate salaries stayed in the log file (and in ``forensic_image()``) until
the rows' *next* step a day later.  The same path finishes a scrub that a
crash interrupted halfway.
"""

import os

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_salary_ranges
from repro.storage.serialization import encode_value

from ..conftest import log_dir_bytes

ROWS = range(1, 8)

#: One mode per way the engine drives ``TableStore.degrade_many``.
MODES = {"batch": {}, "per_step": {"degradation_max_batch": 1}}


def _salary(row_id: int) -> int:
    return 52_009 + 13 * row_id      # unique per row, so its bytes are traceable


def _log_bytes(data_dir) -> bytes:
    return log_dir_bytes(os.path.join(str(data_dir), "wal"))


def _leaked(image: bytes):
    return [row_id for row_id in ROWS if encode_value(_salary(row_id)) in image]


def _open(data_dir, mode) -> InstantDB:
    return InstantDB(data_dir=str(data_dir), **MODES[mode])


def _load(tmp_path, mode) -> InstantDB:
    db = _open(tmp_path, mode)
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        salary, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="salary_lcp"))
    db.execute("CREATE TABLE pay (id INT PRIMARY KEY, salary INT "
               "DEGRADABLE DOMAIN salary POLICY salary_lcp)")
    db.executemany("INSERT INTO pay VALUES (?, ?)",
                   [(row_id, _salary(row_id)) for row_id in ROWS])
    db.checkpoint()
    assert _leaked(_log_bytes(tmp_path)) == list(ROWS)   # not due yet
    return db


@pytest.mark.parametrize("mode", sorted(MODES))
def test_crash_at_scrub_entry_leaves_no_accurate_image_after_recovery(
        tmp_path, mode):
    db = _load(tmp_path, mode)

    def die(*args, **kwargs):
        raise KeyboardInterrupt      # the process is gone: pages durable, log not scrubbed

    db.wal.scrub_records = die
    with pytest.raises(KeyboardInterrupt):
        db.advance_time(hours=2)
    db.daemon.pause()                # abandon: no close(), no checkpoint
    assert _leaked(_log_bytes(tmp_path)) == list(ROWS)

    reopened = _open(tmp_path, mode)
    report = reopened.recover()
    assert reopened.level_histogram("pay", "salary") == {1: len(ROWS)}
    if mode != "per_step":
        # The batch paths die before any SCHED_STEP is logged, so every step
        # comes back overdue; per-step commits the steps before the dying one.
        assert report.overdue_steps_applied == len(ROWS)
    assert _leaked(_log_bytes(tmp_path)) == []
    assert _leaked(reopened.forensic_image()) == []
    reopened.close()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_crash_inside_the_zeroing_pass_is_healed_by_recovery(tmp_path, mode):
    """Marks landed, no image zeroed yet: reopening finishes the job."""
    db = _load(tmp_path, mode)
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

    reopened = _open(tmp_path, mode)
    if mode != "per_step":
        # The whole batch was marked: loading the log already finished the
        # zeroing (per-step died inside the first row's own scrub).
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


@pytest.mark.parametrize("mode", sorted(MODES))
def test_redo_finishes_the_scrub_even_without_a_drain(tmp_path, mode):
    """The wave's DEGRADE records reached the disk, no mark did: recovery's
    redo pass sees rows at their logged level and scrubs them itself."""
    db = _load(tmp_path, mode)
    real_pwrite = os.pwrite
    os.pwrite = _die_on_first_mark(real_pwrite)
    try:
        with pytest.raises(KeyboardInterrupt):
            db.advance_time(hours=2)
    finally:
        os.pwrite = real_pwrite
    db.daemon.pause()

    reopened = _open(tmp_path, mode)
    reopened.recover(drain=False)
    degraded = sum(count for level, count in
                   reopened.level_histogram("pay", "salary").items() if level)
    assert degraded >= 1
    assert len(_leaked(_log_bytes(tmp_path))) == len(ROWS) - (
        len(ROWS) if mode != "per_step" else 1)
    reopened.close()


def test_redo_of_a_removal_scrubs_the_rows_images(tmp_path):
    """DELETE of a never-degraded row, killed between the REMOVE record
    reaching the disk and the scrub of the row's INSERT image."""
    db = _load(tmp_path, "batch")
    real_pwrite = os.pwrite
    os.pwrite = _die_on_first_mark(real_pwrite)
    try:
        with pytest.raises(KeyboardInterrupt):
            db.execute("DELETE FROM pay WHERE id = 3")
    finally:
        os.pwrite = real_pwrite
    db.daemon.pause()
    assert 3 in _leaked(_log_bytes(tmp_path))

    reopened = _open(tmp_path, "batch")
    reopened.recover(drain=False)
    assert reopened.row_count("pay") == len(ROWS) - 1
    assert _leaked(_log_bytes(tmp_path)) == [r for r in ROWS if r != 3]
    reopened.close()
