"""Pushdown ≡ residual: a predicate answers the same wherever it runs.

The default engine evaluates each WHERE conjunct inside the scan of the one
table it reads — on the row degraded to the demanded levels, before the rest
of the row is decoded — hands a hash join's probe side the build side's keys,
and carries rows as positional tuples.  The reference is the model of
:mod:`repro.scenarios.reference`: nested joins over Python lists with the
full WHERE clause above them.  Engine and model hold the same seeded
scenario; every statement text the oracles and the benchmark send (the
``statements`` fixture: imported, not copied) plus seeded WHERE shapes must
return the same rows — and affect the same number of rows — on both, under
each purpose, before and after a 20-day degradation wave.  The named cases
pin what the equivalence rests on.
"""

import random

import pytest

from repro import InstantDB
from repro.core.domains import build_location_tree
from repro.core.lcp import AttributeLCP
from repro.core.policy import Purpose
from repro.core.values import NULL, SUPPRESSED
from repro.engine import ddl
from repro.query.compiler import render_expression
from repro.query.parser import parse, parse_script
from repro.scenarios.reference import evaluate

from .conftest import SEED, loaded_engine, loaded_model, same_answer

PURPOSES = (None, "casework", "placement", "statistics")
SHAPES = 60

# (table, stable columns with sample constants, degradable ones likewise) —
# the constants cover every level a value can be observed at.
_COLUMNS = {
    "users": ({"id": (3, 40, 77), "name": ("user_3", "user_4%", "USER_12"),
               "signup_day": (20, 146, 300)},
              {"address": ("Paris", "6 Castle Hill, Amsterdam", "France",
                           "Ile-de-France", "%Lyon"),
               "health_note": ("hyperthyroidism", "cardiology", "%itis")}),
    "job_applications": ({"id": (5, 90, 160), "user_id": (3, 38, 60),
                          "company_id": (1, 2, 6),
                          "status": ("new", "accepted", "ACCEPTED"),
                          "applied_day": (8, 100, 246)},
                         {"applicant_address": ("Lyon", "1 Main Street, Paris",
                                                "Belgium", "%Paris")}),
    "employee_records": ({"id": (1, 12, 26), "company_id": (2, 4, 5),
                          "hired_day": (100, 143, 181)},
                         {"salary": (1000017, 1000200),
                          "address": ("Antwerp", "2 Station Road, Paris",
                                      "Netherlands")}),
}
_JOINS = (
    ("job_applications", "users", "job_applications.user_id = users.id"),
    ("employee_records", "companies", "employee_records.company_id = companies.id"),
    ("approvals", "users", "approvals.user_id = users.id"),
)
#: Columns only one table of the scenario's joins has: usable unqualified.
_UNIQUE = {"applied_day", "applicant_address", "signup_day", "health_note",
           "hired_day", "salary", "granted_day", "number", "sector"}


def _literal(value):
    return "'" + value.replace("'", "''") + "'" if isinstance(value, str) \
        else repr(value)


def _atom(rng, column, constants, text):
    """One predicate over ``column``; ``text`` columns also get LIKE."""
    a, b = rng.choice(constants), rng.choice(constants)
    kinds = ["=", "!=", "<", ">=", "in", "between", "null", "not null"]
    if text:
        kinds.append("like")
    kind = rng.choice(kinds)
    if kind == "in":
        return f"{column} {rng.choice(('IN', 'NOT IN'))} ({_literal(a)}, {_literal(b)})"
    if kind == "between":
        low, high = sorted((a, b), key=repr)
        return f"{column} BETWEEN {_literal(low)} AND {_literal(high)}"
    if kind == "null":
        return f"{column} IS NULL"
    if kind == "not null":
        return f"{column} IS NOT NULL"
    if kind == "like":
        pattern = a if "%" in a else a[:3] + "%"
        return f"{column} LIKE {_literal(pattern)}"
    return f"{column} {kind} {_literal(a if '%' not in str(a) else b)}"


def _predicate(rng, table, qualify):
    stable, degradable = _COLUMNS[table]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        pool = degradable if rng.random() < 0.5 else stable
        column = rng.choice(sorted(pool))
        name = column if column in _UNIQUE and rng.random() < 0.5 or not qualify \
            else f"{table}.{column}"
        atom = _atom(rng, name, pool[column], isinstance(pool[column][0], str))
        atoms.append(f"NOT {atom}" if rng.random() < 0.2 else atom)
    text = atoms[0]
    for atom in atoms[1:]:
        text = f"({text} {rng.choice(('AND', 'AND', 'OR'))} {atom})"
    return text


def seeded_shapes():
    """Seeded SELECTs: AND / OR / NOT / IN / BETWEEN / IS NULL / LIKE over
    stable and degradable columns; single-table, inner and left joins;
    qualified and uniquely-resolving unqualified names."""
    rng = random.Random(SEED)
    shapes = []
    for _ in range(SHAPES):
        kind = rng.choice(("single", "single", "inner", "left"))
        if kind == "single":
            table = rng.choice(sorted(_COLUMNS))
            shapes.append(f"SELECT * FROM {table} WHERE {_predicate(rng, table, False)}")
            continue
        left, right, on = rng.choice(_JOINS)
        where = _predicate(rng, left, True) if left in _COLUMNS else "approvals.id < 30"
        if right in _COLUMNS:
            where += f" {rng.choice(('AND', 'OR'))} {_predicate(rng, right, True)}"
        elif right == "companies":
            where += f" AND companies.id {rng.choice(('=', '!=', '<'))} {rng.randint(1, 6)}"
        join = "JOIN" if kind == "inner" else "LEFT JOIN"
        shapes.append(f"SELECT {left}.id, {right}.id, {right}.name FROM {left} "
                      f"{join} {right} ON {on} WHERE {where}")
    return shapes


def test_default_engine_answers_like_the_reference(statements):
    pushed, reference = loaded_engine(), loaded_model()
    shapes = seeded_shapes()
    assert {sql.split()[0] for sql in statements} == {"SELECT", "UPDATE", "DELETE"}
    assert sum("LEFT JOIN" in sql for sql in shapes) >= 5

    def run_everything():
        matched = 0
        for purpose in PURPOSES:
            for sql in shapes:
                matched += same_answer(pushed, reference, sql, purpose)
            for sql, samples in statements.items():
                for params in samples:
                    matched += same_answer(pushed, reference, sql, purpose, params)
        return matched

    assert run_everything() > 1000          # the predicates are not all empty
    pushed.advance_time(days=20)            # a wave over most of the rows
    reference.advance(20 * 86400.0)
    assert pushed.stats.degradation_steps_applied == reference.steps_applied() > 0
    assert run_everything() > 100
    for table in pushed.tables():
        same_answer(pushed, reference, f"SELECT * FROM {table}", "statistics")
    # the engine's side of the comparison was pushed down
    single = next(sql for sql in shapes if "JOIN" not in sql)
    plan = pushed.planner.plan_physical(pushed.prepare(single).query)
    assert plan.base.filter is not None and plan.residual is None


# -- named cases -----------------------------------------------------------------


@pytest.fixture(params=["rewrite", "crypto"])
def visits(request):
    """Three rows stored at address level, one with a NULL location."""
    db = InstantDB(strategy=request.param)
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"],
        name="location_lcp"))
    # the table keeps its rows when their location ends up suppressed
    db.create_table(ddl.build_schema(parse_script(
        "CREATE TABLE visits (id INT PRIMARY KEY, location TEXT "
        "DEGRADABLE DOMAIN location POLICY location_lcp, note TEXT)")[0],
        db.registry), remove_on_final=False)
    db.execute("CREATE TABLE guides (id INT PRIMARY KEY, city TEXT)")
    db.execute("DECLARE PURPOSE city SET ACCURACY LEVEL city FOR visits.location")
    db.executemany("INSERT INTO visits VALUES (?, ?, ?)",
                   [(1, "1 Main Street, Paris", "a"), (2, "2 Station Road, Lyon", "b"),
                    (3, "3 Church Lane, Paris", None), (4, None, "d")])
    db.execute("INSERT INTO guides VALUES (1, 'Paris')")
    return db


class TestNamedCases:
    def test_degradable_conjunct_is_tested_at_the_demanded_level(self, visits):
        """Stored at level 0, asked at city level: ``location = 'Paris'`` is
        decided on the generalized value, inside the scan."""
        assert visits.level_histogram("visits", "location") == {0: 4}
        result = visits.execute("SELECT id, location FROM visits "
                                "WHERE location = 'Paris'", purpose="city")
        assert sorted(result.rows) == [(1, "Paris"), (3, "Paris")]
        scan = result.pipeline.find("SeqScan")
        assert render_expression(scan.scan.filter) == "location = 'Paris'"
        assert (scan.examined, scan.stats.rows_out) == (4, 2)
        # at the stored level nobody lives in 'Paris'
        assert visits.execute("SELECT id FROM visits WHERE location = 'Paris'").rows == []

    def test_left_join_right_side_conjunct_is_not_pushed(self, visits):
        sql = ("SELECT visits.id FROM visits LEFT JOIN guides "
               "ON visits.id = guides.id WHERE guides.city IS NULL")
        result = visits.execute(sql, purpose="city")
        # pushed into the guides scan it would test no padded row and keep
        # every visit; above the join it keeps exactly the unguided ones
        assert sorted(result.rows) == [(2,), (3,), (4,)]
        assert result.pipeline.find("Filter") is not None
        assert all(scan.scan.filter is None for scan in result.pipeline.walk()
                   if scan.label == "SeqScan")

    @pytest.mark.parametrize("predicate", [
        "location = 'Paris'", "location != 'Paris'", "location < 'Z'",
        "location >= ''", "location LIKE '%'", "location IN ('Paris', 'Lyon')",
        "location NOT IN ('Paris')", "location BETWEEN '' AND 'zzz'",
        "note = 'a'", "note != 'a'", "note LIKE '%'"])
    def test_a_sentinel_filter_column_never_passes_a_comparison(
            self, visits, predicate):
        """Row 4 has no location, row 3 no note; after three months every
        location is SUPPRESSED."""
        missing = 4 if predicate.startswith("location") else 3
        ids = [row[0] for row in visits.execute(
            f"SELECT id FROM visits WHERE {predicate}", purpose="city").rows]
        assert missing not in ids
        if predicate.startswith("location"):
            visits.advance_time(days=200)
            anything = Purpose("anything")      # location at whatever is stored
            assert visits.execute("SELECT location FROM visits WHERE id = 1",
                                  purpose=anything).rows == [(SUPPRESSED,)]
            assert visits.execute(f"SELECT id FROM visits WHERE {predicate}",
                                  purpose=anything).rows == []
            assert len(visits.execute("SELECT id FROM visits WHERE location IS NULL",
                                      purpose=anything).rows) == 4

    def test_crypto_destroyed_key_reads_suppressed_in_the_filter_column(self):
        """The model keeps no key, so the reference here is the model's
        evaluator applied to the engine's own unfiltered read."""
        pushed = loaded_engine(strategy="crypto")
        for row_key in (1, 2, 3):
            pushed.keystore.destroy_key(("users", row_key, "address", 0))
        result = pushed.execute("SELECT id, address FROM users WHERE id <= 5 "
                                "AND address IS NULL", purpose="casework")
        assert sorted(result.rows) == [(1, SUPPRESSED), (2, SUPPRESSED), (3, SUPPRESSED)]
        assert "address IS NULL" in result.pipeline.find("SeqScan").describe()
        for predicate in ("address IS NULL", "address LIKE '%'", "address != 'x'",
                          "NOT address = 'x'", "address = 'x' OR id < 3"):
            where = parse(f"SELECT id FROM users WHERE {predicate}").where
            everything = pushed.execute("SELECT id, address FROM users",
                                        purpose="casework").rows
            want = [row for row in everything
                    if evaluate(where, {"id": row[0], "address": row[1]}) is True]
            got = pushed.execute(f"SELECT id, address FROM users WHERE {predicate}",
                                 purpose="casework").rows
            assert sorted(got) == sorted(want), predicate

    def test_null_never_matches_but_is_null_does(self, visits):
        assert visits.execute("SELECT id FROM visits WHERE note IS NULL").rows == [(3,)]
        assert visits.execute("SELECT id, note FROM visits WHERE id = 3").rows == \
            [(3, NULL)]
