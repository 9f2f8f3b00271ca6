"""The inclusion-platform scenario: schema + policy pack.

Models a les-emplois-style job-inclusion platform — the kind of production
system whose personal data a GDPR retention schedule must erode on time:

* ``users`` — job seekers; home address and a health/social note degrade on
  different cadences.  The address policy stops at ``country`` (pure
  generalization), so user rows are never physically removed: the platform
  keeps a pseudonymous profile forever while exposure shrinks.
* ``companies`` — stable dimension table (no personal data), join target.
* ``job_applications`` — the hot table: written during the op stream, carries
  the applicant's address under the fastest policy.  The table keeps rows
  after full suppression (``remove_on_final=False``): an application record
  with a ``SUPPRESSED`` address is still a countable business fact.
  ``user_id`` is the policy *selector*: a deterministic subset of "paranoid"
  users override the address policy with a much stricter cadence (the
  paper's per-tuple extension under macro load).
* ``approvals`` — stable administrative records (join/range target).
* ``employee_records`` — salary and address both degrade and both end at
  full suppression, so finished records are physically *removed*
  (``remove_on_final=True``), WAL traces scrubbed.

Every policy is timed-only, so the retention invariant checker can compute
the exact accuracy floor any attribute must have reached at the simulated
clock (:mod:`repro.scenarios.retention`).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.domains import build_diagnosis_tree, build_location_tree, build_salary_ranges
from ..core.lcp import AttributeLCP
from ..engine import ddl
from ..engine.database import InstantDB
from ..query.parser import parse_script

#: Tables of the scenario, in load order (dimension tables first so foreign
#: keys always resolve).
TABLES: Tuple[str, ...] = (
    "companies", "users", "approvals", "employee_records", "job_applications",
)

#: user_id % PARANOID_MODULUS == PARANOID_RESIDUE selects the paranoid users.
PARANOID_MODULUS = 23
PARANOID_RESIDUE = 5

#: Per-policy transition cadences (kept short enough that a few simulated
#: months of op stream traverses every life cycle end to end).
USER_ADDRESS_TRANSITIONS = ["3 days", "14 days", "60 days"]
HEALTH_NOTE_TRANSITIONS = ["5 days", "20 days", "60 days"]
APP_ADDRESS_TRANSITIONS = ["1 day", "6 days", "21 days", "60 days"]
APP_ADDRESS_PARANOID_TRANSITIONS = ["4 hours", "1 day", "3 days", "10 days"]
EMPLOYEE_TRANSITIONS = ["2 days", "7 days", "21 days", "45 days"]

_CREATE_COMPANIES = (
    "CREATE TABLE companies ("
    "  id INT PRIMARY KEY,"
    "  name TEXT,"
    "  city TEXT,"
    "  sector TEXT"
    ")"
)

_CREATE_USERS = (
    "CREATE TABLE users ("
    "  id INT PRIMARY KEY,"
    "  name TEXT,"
    "  address TEXT DEGRADABLE DOMAIN location POLICY user_address_lcp,"
    "  health_note TEXT DEGRADABLE DOMAIN diagnosis POLICY health_note_lcp,"
    "  signup_day INT"
    ")"
)

_CREATE_APPROVALS = (
    "CREATE TABLE approvals ("
    "  id INT PRIMARY KEY,"
    "  user_id INT,"
    "  number TEXT,"
    "  granted_day INT,"
    "  status TEXT"
    ")"
)

_CREATE_EMPLOYEE_RECORDS = (
    "CREATE TABLE employee_records ("
    "  id INT PRIMARY KEY,"
    "  user_id INT,"
    "  company_id INT,"
    "  salary INT DEGRADABLE DOMAIN salary POLICY emp_salary_lcp,"
    "  address TEXT DEGRADABLE DOMAIN location POLICY emp_address_lcp,"
    "  hired_day INT"
    ")"
)

#: Created through the Python API so the table can keep fully-suppressed rows
#: (remove_on_final=False) and carry the per-tuple policy selector.
_CREATE_JOB_APPLICATIONS = (
    "CREATE TABLE job_applications ("
    "  id INT PRIMARY KEY,"
    "  user_id INT,"
    "  company_id INT,"
    "  status TEXT,"
    "  applicant_address TEXT DEGRADABLE DOMAIN location POLICY app_address_lcp,"
    "  applied_day INT"
    ")"
)

#: The three purposes the mixed workload runs under: fine-grained casework,
#: service-level placement, and coarse statistics.
PURPOSES_SQL: Tuple[str, ...] = (
    ("DECLARE PURPOSE casework SET ACCURACY LEVEL "
     "address FOR users.address, diagnosis FOR users.health_note, "
     "address FOR job_applications.applicant_address, "
     "exact FOR employee_records.salary, address FOR employee_records.address"),
    ("DECLARE PURPOSE placement SET ACCURACY LEVEL "
     "city FOR users.address, disease_group FOR users.health_note, "
     "city FOR job_applications.applicant_address, "
     "range100 FOR employee_records.salary, city FOR employee_records.address"),
    ("DECLARE PURPOSE statistics SET ACCURACY LEVEL "
     "country FOR users.address, specialty FOR users.health_note, "
     "country FOR job_applications.applicant_address, "
     "range10000 FOR employee_records.salary, "
     "country FOR employee_records.address"),
)


def paranoid_user(user_id: int) -> bool:
    """Whether ``user_id`` registered the stricter per-tuple address policy."""
    return user_id % PARANOID_MODULUS == PARANOID_RESIDUE


class InclusionScenario:
    """Installs the inclusion-platform schema/policy pack on an engine.

    ``install`` is deterministic and idempotent across process restarts: a
    reopened database directory re-runs the same DDL (the catalog is
    code-defined, the data is log-defined), after which
    :meth:`InstantDB.recover` can replay the heap and the schedule.
    """

    name = "inclusion"

    def __init__(self, scale: int = 1000) -> None:
        if scale < 1:
            raise ValueError("scale must be at least 1")
        self.scale = scale

    # -- derived sizes (shared with the generator) ---------------------------

    @property
    def num_users(self) -> int:
        return self.scale

    @property
    def num_companies(self) -> int:
        return max(6, self.scale // 40)

    @property
    def num_applications(self) -> int:
        return self.scale * 2

    @property
    def num_approvals(self) -> int:
        return max(1, self.scale // 2)

    @property
    def num_employees(self) -> int:
        return max(1, self.scale // 3)

    def paranoid_users(self) -> List[int]:
        return [user_id for user_id in range(1, self.num_users + 1)
                if paranoid_user(user_id)]

    # -- installation --------------------------------------------------------

    def install(self, db: InstantDB) -> InstantDB:
        """Register domains, policies, tables, purposes and overrides."""
        location = db.register_domain(build_location_tree())
        diagnosis = db.register_domain(build_diagnosis_tree())
        salary = db.register_domain(build_salary_ranges())
        db.register_policy(AttributeLCP(
            location, states=[0, 1, 2, 3],
            transitions=USER_ADDRESS_TRANSITIONS, name="user_address_lcp"))
        db.register_policy(AttributeLCP(
            diagnosis, transitions=HEALTH_NOTE_TRANSITIONS,
            name="health_note_lcp"))
        db.register_policy(AttributeLCP(
            location, transitions=APP_ADDRESS_TRANSITIONS,
            name="app_address_lcp"))
        paranoid = db.register_policy(AttributeLCP(
            location, transitions=APP_ADDRESS_PARANOID_TRANSITIONS,
            name="app_address_paranoid_lcp"))
        db.register_policy(AttributeLCP(
            salary, transitions=EMPLOYEE_TRANSITIONS, name="emp_salary_lcp"))
        db.register_policy(AttributeLCP(
            location, transitions=EMPLOYEE_TRANSITIONS, name="emp_address_lcp"))

        for sql in (_CREATE_COMPANIES, _CREATE_USERS, _CREATE_APPROVALS,
                    _CREATE_EMPLOYEE_RECORDS):
            db.execute(sql)
        # job_applications keeps fully-suppressed rows and resolves per-tuple
        # overrides on user_id, so it goes through the Python surface.
        statement = parse_script(_CREATE_JOB_APPLICATIONS)[0]
        schema = ddl.build_schema(statement, db.registry)
        db.create_table(schema, remove_on_final=False, selector_column="user_id")
        for user_id in self.paranoid_users():
            db.register_user_policy("job_applications", user_id,
                                    {"applicant_address": paranoid})
        for sql in PURPOSES_SQL:
            db.execute(sql)
        return db

    def describe(self) -> str:
        lines = [f"scenario {self.name!r} @ scale {self.scale}:"]
        lines.append(f"  users={self.num_users} companies={self.num_companies} "
                     f"applications={self.num_applications} "
                     f"approvals={self.num_approvals} "
                     f"employees={self.num_employees}")
        lines.append(f"  paranoid users: {len(self.paranoid_users())} "
                     f"(user_id % {PARANOID_MODULUS} == {PARANOID_RESIDUE})")
        return "\n".join(lines)


__all__ = [
    "InclusionScenario", "TABLES", "PURPOSES_SQL", "paranoid_user",
    "PARANOID_MODULUS", "PARANOID_RESIDUE",
]
