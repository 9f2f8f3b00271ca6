"""The hash join's side choice, what EXPLAIN says about it, and what an empty
side costs: the smaller *filtered* input is built, an inner join whose build
side is empty never opens the other input, and the other input — when it is a
table scan — is fetched by the build side's keys (through an index on its join
column, or as a membership test evaluated before the rest of the row)."""

import pytest

from repro.core.values import NULL

from .conftest import loaded_engine

APPS_USERS = ("SELECT job_applications.id, users.name, users.address "
              "FROM job_applications {join} users "
              "ON job_applications.user_id = users.id "
              "WHERE job_applications.company_id = ?")
EMP_COMPANIES = ("SELECT employee_records.id, companies.name, employee_records.address "
                 "FROM employee_records JOIN companies "
                 "ON employee_records.company_id = companies.id WHERE companies.id = ?")


@pytest.fixture(scope="module")
def db():
    """The seeded inclusion scenario, aged until ``casework`` (address level)
    sees no job application any more while ``statistics`` still sees all."""
    db = loaded_engine()
    db.advance_time(days=2)
    assert db.execute("SELECT COUNT(*) FROM job_applications",
                      purpose="casework").rows == [(0,)]
    return db


def explain(db, sql, purpose, params, analyze=False):
    keyword = "EXPLAIN ANALYZE" if analyze else "EXPLAIN"
    return [row[0] for row in db.execute(f"{keyword} {sql}", purpose=purpose,
                                         params=params).rows]


class TestEmptySide:
    def test_inner_join_with_an_empty_build_side_never_opens_the_other(self, db):
        """Reproducer: the parent scanned and hashed all of ``users`` against
        an input the level rule had emptied."""
        users, apps = db.table_store("users"), db.table_store("job_applications")
        reads = (users.stats.reads, apps.stats.reads)
        result = db.execute(APPS_USERS.format(join="JOIN"), purpose="casework",
                            params=(2,))
        assert result.rows == []
        left, right = result.pipeline.find("HashJoin").children
        assert left.scan.table == "job_applications" and right.scan.table == "users"
        # every application was excluded by its page's level floor, no
        # record header read ...
        assert (left.examined, left.excluded, left.stats.rows_out) == \
            (apps.row_count, apps.row_count, 0)
        assert left.pages_skipped == apps.heap.page_count
        assert apps.stats.reads - reads[1] == 0
        # ... and users was never opened
        assert (right.examined, right.stats.rows_out) == (0, 0)
        assert users.stats.reads == reads[0]

    def test_left_join_keeps_padding(self, db):
        result = db.execute(
            "SELECT users.id, job_applications.id FROM users LEFT JOIN job_applications "
            "ON users.id = job_applications.user_id WHERE users.id <= 3",
            purpose="casework")
        # users are still at address level after two days, their applications
        # are not: every user is kept, padded
        assert sorted(result.rows) == [(1, NULL), (2, NULL), (3, NULL)]
        result = db.execute(
            "SELECT companies.id, employee_records.id FROM companies LEFT JOIN "
            "employee_records ON companies.id = employee_records.company_id "
            "WHERE companies.id <= 2", purpose="casework")
        assert sorted(result.rows) == [(1, NULL), (2, NULL)]
        join = result.pipeline.find("HashJoin")
        assert join.children[1].excluded == db.table_store("employee_records").row_count


class TestSideChoice:
    def test_small_filtered_left_side_is_built_and_the_right_fetched_by_index(self, db):
        # a handful of applications a day: probing pk_users per applicant is
        # estimated cheaper than scanning the 80 users
        sql = APPS_USERS.format(join="JOIN").replace("company_id", "applied_day")
        lines = explain(db, sql, "statistics", (246,))
        join = next(line for line in lines if "HashJoin" in line)
        assert "build=left, probe=index pk_users" in join
        assert any("IndexScan(pk_users id in build keys) on users" in line
                   for line in lines)
        assert any("SeqScan on job_applications" in line and
                   "filter (job_applications.applied_day = 246)" in line
                   for line in lines)
        result = db.execute(sql, purpose="statistics", params=(246,))
        left, right = result.pipeline.find("HashJoin").children
        assert right.label == "IndexScan"
        # only the users who applied that day were fetched
        applicants = {row[0] for row in db.execute(
            "SELECT user_id FROM job_applications WHERE applied_day = 246",
            purpose="statistics").rows}
        assert right.examined == len(applicants) < db.table_store("users").row_count
        assert left.stats.rows_out == len(result.rows) > 0

    def test_a_less_selective_build_side_makes_the_other_scan_test_membership(self, db):
        """A sixth of the applications name company 2: probing the index per
        applicant would cost more than one pass over the users."""
        lines = explain(db, APPS_USERS.format(join="JOIN"), "statistics", (2,))
        assert any("HashJoin" in line and "build=left, probe=scan filter" in line
                   for line in lines)
        assert any("SeqScan on users" in line and "probe (id in build keys)" in line
                   for line in lines)

    def test_filtered_right_side_is_built_and_the_left_scan_tests_membership(self, db):
        lines = explain(db, EMP_COMPANIES, "statistics", (2,))
        assert any("HashJoin" in line and "build=right, probe=scan filter" in line
                   for line in lines)
        assert any("SeqScan on employee_records" in line and
                   "probe (company_id in build keys)" in line for line in lines)
        assert any("IndexScan(pk_companies id=2) on companies" in line
                   for line in lines)
        result = db.execute(EMP_COMPANIES, purpose="statistics", params=(2,))
        left, right = result.pipeline.find("HashJoin").children
        assert right.stats.rows_out == 1
        # the join never sees an employee of another company
        assert left.stats.rows_out == len(result.rows) > 0
        assert left.examined == db.table_store("employee_records").row_count

    def test_left_join_streams_its_left_side(self, db):
        lines = explain(db, APPS_USERS.format(join="LEFT JOIN"), "statistics", (2,))
        assert any("HashJoin (left users" in line and "build=right, probe=stream" in line
                   for line in lines)


class TestExplainAnalyze:
    def test_each_scan_reports_examined_excluded_and_rows(self, db):
        lines = explain(db, "SELECT id, status, applicant_address FROM job_applications "
                            "WHERE applied_day >= ? AND applied_day <= ? ORDER BY id",
                        "placement", (100, 130), analyze=True)
        scan = next(line for line in lines[1:] if "SeqScan" in line)
        store = db.table_store("job_applications")
        result = db.execute("SELECT id, applicant_address FROM job_applications",
                            purpose="placement")
        visible = len(result.rows)
        assert 0 < visible < store.row_count
        assert "filter (applied_day >= 100 AND applied_day <= 130)" in scan
        assert f"(examined={store.row_count} excluded={store.row_count - visible} " \
            "pages_skipped=" in scan
        rows = int(scan.split("(rows=")[1].split(")")[0])
        assert 0 < rows < visible

    def test_explain_update_and_delete_show_the_same_match_pipeline(self, db):
        where = "WHERE status = 'new' AND applied_day < 50"
        select = explain(db, f"SELECT * FROM job_applications {where}", None, ())
        for statement in (f"UPDATE job_applications SET status = 'x' {where}",
                          f"DELETE FROM job_applications {where}"):
            lines = explain(db, statement, None, ())
            assert lines[1:] == [line.strip() for line in select
                                 if "SeqScan" in line and "Select" not in line]
            assert "filter (status = 'new' AND applied_day < 50)" in lines[1]
