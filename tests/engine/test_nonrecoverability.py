"""Forensic non-recoverability: after a degradation step, the accurate value is
gone from the data store, the indexes and the log (paper §III challenge 2)."""

import pytest

from repro.privacy.forensic import scan_engine

from ..conftest import build_engine

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"


def populate(db):
    db.execute(f"INSERT INTO person (id, user_id, name, location, salary, activity) "
               f"VALUES (1, 1, 'alice', '{PARIS}', 2500, 'work')")
    db.execute(f"INSERT INTO person (id, user_id, name, location, salary, activity) "
               f"VALUES (2, 2, 'bob', '{LYON}', 3100, 'travel')")


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
class TestDegradationErasesAccurateValues:
    def test_accurate_location_present_before_degradation(self, strategy):
        db = build_engine(strategy=strategy)
        db.execute("CREATE INDEX idx_location ON person (location) USING gt")
        populate(db)
        report = scan_engine(db, [PARIS], table="person")
        if strategy == "rewrite":
            assert not report.clean        # plaintext legitimately present while accurate
        else:
            # Crypto strategy never stores plaintext in heap/WAL; only the index
            # keys hold it while the value is still accurate.
            channels = {finding.channel for finding in report.findings}
            assert channels <= {"index:idx_location"}

    def test_city_step_removes_street_address_everywhere(self, strategy):
        db = build_engine(strategy=strategy)
        db.execute("CREATE INDEX idx_location ON person (location) USING gt")
        populate(db)
        db.advance_time(hours=2)
        report = scan_engine(db, [PARIS, LYON], table="person")
        assert report.clean, report.summary()

    def test_full_lifecycle_erases_everything_sensitive(self, strategy):
        db = build_engine(strategy=strategy)
        db.execute("CREATE INDEX idx_location ON person (location) USING gt")
        populate(db)
        db.advance_time(days=800)
        report = scan_engine(db, [PARIS, LYON, "Paris", "Lyon", "Ile-de-France",
                                  "France", 2500, 3100])
        assert report.clean, report.summary()

    def test_explicit_delete_is_also_unrecoverable(self, strategy):
        db = build_engine(strategy=strategy)
        populate(db)
        db.execute("DELETE FROM person WHERE id = 1")
        report = scan_engine(db, [PARIS, "alice"], table="person")
        assert report.clean, report.summary()

    def test_intermediate_levels_cleaned_as_they_expire(self, strategy):
        db = build_engine(strategy=strategy)
        populate(db)
        db.advance_time(days=2)      # city -> region
        report = scan_engine(db, [PARIS, LYON, "Paris", "Lyon"], table="person")
        assert report.clean, report.summary()
        if strategy == "rewrite":
            # Regions are the current accuracy, so their plaintext legitimately
            # remains in the data pages (the crypto strategy stores even the
            # current value encrypted, so nothing is expected there).
            region_report = scan_engine(db, ["Ile-de-France"], table="person")
            assert not region_report.clean

    def test_stable_attributes_survive(self, strategy):
        db = build_engine(strategy=strategy)
        populate(db)
        db.advance_time(days=2)
        report = scan_engine(db, ["alice", "bob"], table="person")
        assert not report.clean


class TestBaselineComparison:
    def test_without_secure_reclamation_ghosts_survive(self):
        """Control experiment: a non-secure page keeps deleted plaintext around,
        which is exactly the forensic threat the paper cites."""
        from repro.storage.page import SlottedPage
        page = SlottedPage(secure=False)
        slot = page.insert(PARIS.encode())
        page.delete(slot)
        assert PARIS.encode() in page.raw()

    def test_wal_without_scrubbing_keeps_images(self):
        from repro.storage.wal import LogRecordType, WriteAheadLog, encode_delta
        wal = WriteAheadLog()
        wal.append(LogRecordType.DELTA, 1, table="person", row_key=1,
                   after=encode_delta([(1, 1, PARIS.encode())])[0])
        assert PARIS.encode() in wal.raw_image()


class TestScannerReadsTheLogFromDisk:
    """Scrubs happen in place in the segment files, so that is what the
    scanner has to look at — not the records held in memory."""

    def test_image_left_on_disk_is_found_though_memory_is_clean(self, tmp_path):
        from dataclasses import replace
        db = build_engine(data_dir=str(tmp_path / "data"))
        populate(db)
        # What a scrub that forgot the disk would leave behind.
        db.wal._records[:] = [replace(record, after=None)
                              if record.table == "person" else record
                              for record in db.wal]
        assert all(record.after is None for record in db.wal
                   if record.table == "person")
        report = scan_engine(db, [PARIS], table="person")
        assert report.findings_in("wal")

    def test_clean_after_the_real_scrub(self, tmp_path):
        db = build_engine(data_dir=str(tmp_path / "data"))
        populate(db)
        db.advance_time(hours=2)           # first step: city level, log scrubbed
        assert scan_engine(db, [PARIS, LYON]).clean
        assert scan_engine(db, [PARIS, LYON], table="person").clean
