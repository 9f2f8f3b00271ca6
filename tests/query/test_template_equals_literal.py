"""Template ≡ literal, on every statement shape the oracles and the benchmark send.

Every SELECT and every UPDATE/DELETE match is served from a cached *template*
plan (placeholders still in place) with the execution's values bound into a
copy.  An engine runs each statement with parameters, through the cache; its
twin — a second engine, or the reference model of
:mod:`repro.scenarios.reference` — runs the same statement with the values
inlined into the text, planned from scratch (the twin engine's statement
cache is emptied first) or not planned at all.  They must return the same
rows and leave the same tables, under each purpose, before and after a
degradation wave that bumps the statistics epoch — and the cached template
must still hold its slots, and no bound value, afterwards.

The statement texts are imported from where they are sent
(``repro.scenarios.driver`` and ``benchmarks/e2e/workloads.py``), not copied
(the ``statements`` fixture, ``conftest.py``).
"""

import pytest

from repro.query import ast_nodes as ast
from repro.query.parameters import placeholder_indexes
from repro.query.planner import ParamMarker, _flatten_and

from .conftest import loaded_engine, loaded_model

PURPOSES = (None, "casework", "placement", "statistics")


def inlined(sql, params):
    """``sql`` with each ``?`` replaced by its value as a SQL literal."""
    for value in params:
        literal = "'" + value.replace("'", "''") + "'" \
            if isinstance(value, str) else repr(value)
        sql = sql.replace("?", literal, 1)
    assert "?" not in sql
    return sql


def tables(target, names):
    return {table: target.execute(f"SELECT * FROM {table} ORDER BY id").rows
            for table in names}


def assert_template_keeps_its_slots(prepared):
    """Every cached plan is the unbound template: its scan filters and its
    residual are made of the statement's own WHERE conjuncts (binding builds
    new nodes), its access paths read ``ParamMarker`` slots, and between them
    every parameter slot of the WHERE clause is still a slot."""
    where = prepared.query.where
    conjuncts = _flatten_and(where) if where is not None else []
    literals = {node.value for conjunct in conjuncts
                for node in vars(conjunct).values()
                if isinstance(node, ast.Literal)}
    for template in prepared._plans.values():
        assert template.statement is prepared.query
        slots = set()
        for predicate in [template.residual] + [scan.filter for scan in template.scans]:
            slots.update(placeholder_indexes(predicate))
            if predicate is not None:
                for part in _flatten_and(predicate):
                    assert any(part is conjunct for conjunct in conjuncts + [where])
        for scan in template.scans:
            for value in (scan.access.key, scan.access.low, scan.access.high):
                if isinstance(value, ParamMarker):
                    slots.add(value.index)
                else:
                    assert value is None or value in literals
        assert slots == set(placeholder_indexes(where))


@pytest.mark.parametrize("twin", ["engine", "model"])
def test_cached_template_answers_like_the_inlined_statement(twin, statements):
    templated = loaded_engine()
    literal = loaded_engine() if twin == "engine" else loaded_model()
    stats = templated.statements.stats
    served = set()
    assert {sql.split()[0] for sql in statements} == {"SELECT", "UPDATE", "DELETE"}

    def run_everything():
        for sql, samples in statements.items():
            prepared = templated.prepare(sql)
            for purpose in PURPOSES:
                for params in samples:
                    key = (sql, purpose, templated.catalog.version,
                           templated.statistics.epoch(),
                           prepared.plan_shape(params))
                    hits, misses = stats.plan_hits, stats.plan_misses
                    got = templated.execute(sql, purpose=purpose, params=params)
                    # a second execution under one key is a cache hit —
                    # for UPDATE and DELETE too
                    assert (stats.plan_hits - hits, stats.plan_misses - misses) \
                        == ((1, 0) if key in served else (0, 1)), (sql, purpose)
                    served.add(key)
                    if twin == "engine":
                        literal.statements.clear()      # planned from scratch
                    want = literal.execute(inlined(sql, params), purpose=purpose)
                    if isinstance(got, int):
                        assert got == getattr(want, "rowcount", want), \
                            (sql, params, purpose)
                    elif twin == "engine":
                        assert got.columns == want.columns
                        assert got.rows == want.rows, (sql, params, purpose)
                    else:   # the model's rows come in its own order
                        assert got.columns == want.columns
                        assert sorted(map(repr, got.rows)) == \
                            sorted(map(repr, want.rows)), (sql, params, purpose)
                assert_template_keeps_its_slots(prepared)
        names = templated.tables()
        assert tables(templated, names) == tables(literal, names)

    run_everything()
    epoch = templated.statistics.epoch()
    templated.advance_time(days=20)         # a wave over most of the rows
    if twin == "engine":
        literal.advance_time(days=20)
    else:
        literal.advance(20 * 86400.0)
    assert templated.stats.degradation_steps_applied > 0
    assert templated.statistics.epoch() > epoch
    run_everything()
    if twin == "engine":
        assert literal.statements.stats.plan_hits == 0
