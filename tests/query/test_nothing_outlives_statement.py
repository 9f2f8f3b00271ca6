"""Nothing a statement learned from rows outlives it.

A scan's generalization memo, a hash join's table and the keys it hands its
probe side, an aggregate's groups, a Top-N heap: all of them hold row values —
some of them accurate values a degradation wave is about to remove — and all
of them live in generator frames that die when the result is exhausted or
closed.  After that, and again after a wave, no operator reachable from
``Executor.last_pipeline``, no cached plan template and no ``CompiledSelect``
closure holds a row value (``docs/invariants.md``: "derived state holds
current values only", "the plan cache holds templates only").
"""

import functools
import types

import pytest

import repro
from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.core.generalization import GeneralizationScheme
from repro.query.catalog import Catalog, IndexInfo
from repro.query.operators import PipelineRuntime
from repro.storage.degradable_store import TableStore

ADDRESSES = ("1 Main Street, Paris", "2 Station Road, Lyon", "3 Church Lane, Paris")
#: What the engine itself is made of (it holds the data, by design) and the
#: domain trees (they name every value a column *could* take).
ENGINE = (PipelineRuntime, Catalog, TableStore, IndexInfo, GeneralizationScheme,
          types.ModuleType, type)


@pytest.fixture
def db():
    db = InstantDB()
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"],
        name="location_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, who TEXT, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, guide_id INT)")
    db.execute("CREATE TABLE guides (id INT PRIMARY KEY, name TEXT)")
    for level in ("city", "region"):
        db.execute(f"DECLARE PURPOSE {level} SET ACCURACY LEVEL {level} "
                   "FOR visits.location")
    db.executemany("INSERT INTO visits VALUES (?, ?, ?, ?)",
                   [(i, f"MARK-visitor-{i}", ADDRESSES[i % 3], i % 7)
                    for i in range(1, 301)])
    db.executemany("INSERT INTO guides VALUES (?, ?)",
                   [(i, f"MARK-guide-{i}") for i in range(7)])
    return db


def row_values(db):
    """Every string a row of the two tables holds or generalizes to — but
    the two city names, which the statements below pass as parameters (a
    bound plan does hold its own parameters)."""
    values = {f"MARK-visitor-{i}" for i in range(1, 301)}
    values |= {f"MARK-guide-{i}" for i in range(7)}
    values |= set(ADDRESSES) | {"Ile-de-France", "Auvergne-Rhone-Alpes"}
    return values


def held_values(roots, values):
    """Row values reachable from ``roots`` through attributes (``vars()``,
    slots), closure cells, defaults, partials and containers."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, ENGINE):
            continue
        seen.add(id(node))
        if isinstance(node, str):
            if node in values:
                found.append(node)
            continue
        if isinstance(node, dict):
            stack.extend(node.keys())
            stack.extend(node.values())
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
        elif isinstance(node, functools.partial):
            stack.extend((node.func, node.args, node.keywords))
        elif isinstance(node, types.FunctionType):
            stack.extend(cell.cell_contents for cell in node.__closure__ or ()
                         if cell is not None)
            stack.extend(node.__defaults__ or ())
        elif isinstance(node, types.MethodType):
            stack.extend((node.__self__, node.__func__))
        else:
            stack.extend(getattr(node, "__dict__", {}).values())
            for klass in type(node).__mro__:
                stack.extend(getattr(node, slot) for slot in
                             getattr(klass, "__slots__", ()) if hasattr(node, slot))
    return found


def plan_state(db):
    """The operator tree of the last execution and every cached template with
    its compiled closures."""
    roots = [db.executor.last_pipeline]
    for prepared in db.statements._entries.values():
        roots.extend(prepared._plans.values())
    return roots


#: (sql, purpose, params): a filtered scan with generalization, a join whose
#: probe side is fed the build side's keys, a group-by, a Top-N.
STATEMENTS = (
    ("SELECT id, who, location FROM visits WHERE location = ? ORDER BY id",
     "city", ("Lyon",)),
    ("SELECT visits.who, guides.name FROM visits JOIN guides "
     "ON visits.guide_id = guides.id WHERE visits.id < ?", "region", (40,)),
    ("SELECT guides.name, visits.location FROM guides JOIN visits "
     "ON guides.id = visits.guide_id WHERE guides.id = ?", "region", (3,)),
    ("SELECT location, COUNT(*) AS n, MIN(who) AS first FROM visits "
     "GROUP BY location HAVING n > ?", "region", (5,)),
    ("SELECT who, location FROM visits ORDER BY who DESC LIMIT 5", "city", ()),
)


def run_all(db, values):
    for sql, purpose, params in STATEMENTS:
        result = db.execute(sql, purpose=purpose, params=params)
        assert result.rows, sql
        # the walker does see a value where one is held ...
        assert held_values([result.rows], values)
        # ... and the finished statement holds none
        assert held_values(plan_state(db) + [result.pipeline], values) == [], sql


def test_an_exhausted_result_leaves_no_row_value_behind(db):
    values = row_values(db)
    run_all(db, values)
    db.advance_time(hours=2)            # a wave: every location leaves level 0
    assert db.level_histogram("visits", "location") == {1: 300}
    run_all(db, values)


def test_a_closed_or_abandoned_cursor_leaves_none_either(db):
    values = row_values(db)
    connection = repro.connect(engine=db)
    for sql, purpose, params in STATEMENTS:
        cursor = connection.cursor()
        cursor.execute(sql, params, purpose=purpose)
        assert cursor.fetchone() is not None
        # mid-stream the live pipeline does hold rows (hash table, groups,
        # memo, the decoded page run) — in generator frames, but for the hash
        # table a join lends its probe scan, which the walker reaches ...
        if "JOIN" in sql:
            assert held_values(plan_state(db), values)
        cursor.close()
        # ... closing the cursor closes the generators that held them
        assert held_values(plan_state(db), values) == [], sql
    connection.commit()
    early = db.execute("SELECT who FROM visits WHERE location = ? LIMIT 2",
                       purpose="city", params=("Paris",))
    assert len(early.rows) == 2
    assert held_values(plan_state(db) + [early.pipeline], values) == []
