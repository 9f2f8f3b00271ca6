"""What the engine-against-model equivalence tests of this directory share: the
statement texts the oracles and the benchmark really send, and a seeded
scenario load into the engine and into the reference model."""

import pytest

from benchmarks.e2e import workloads
from repro import InstantDB
from repro.scenarios import InclusionGenerator, InclusionScenario, OpStream, reference_model

SCALE = 80
SEED = 7
#: Parameter sets tried per statement text.
SAMPLES = 3


@pytest.fixture(scope="module")
def statements():
    """``sql -> [params, …]`` for every SELECT / UPDATE / DELETE text of the
    scenario op stream and of the benchmark's workloads — imported from where
    they are sent (``repro.scenarios.driver``, ``benchmarks/e2e/workloads.py``),
    not copied."""
    scenario = InclusionScenario(SCALE)
    stream = OpStream(scenario, seed=SEED, count=400)
    ops = [(op.sql, tuple(op.params))
           for op in stream.ops() + stream.epilogue(400) if op.sql]
    for workload in ("oltp_mixed", "scan_analytic"):
        sizes = dict(workloads.TINY_SIZES[workload], scale=SCALE, statements=200)
        for op in workloads.Inputs(workload, sizes, SEED).streams[0]:
            ops.append((op.sql, tuple(op.params)))
    ops += [(workloads._POINT_EMPLOYEE, (row,)) for row in (3, 11)]  # lifecycle's probe
    found = {}
    for sql, params in ops:
        if sql.split()[0].upper() in ("SELECT", "UPDATE", "DELETE"):
            samples = found.setdefault(sql, [])
            if len(samples) < SAMPLES and params not in samples:
                samples.append(params)
    return found


def loaded_engine(**options):
    """An engine holding the seeded inclusion scenario at :data:`SCALE`."""
    engine = InstantDB(**options)
    scenario = InclusionScenario(SCALE)
    scenario.install(engine)
    for batch in InclusionGenerator(scenario, seed=SEED).batches(500):
        engine.executemany(batch.insert_sql, batch.rows)
    return engine


def loaded_model():
    """The reference model holding the same seeded scenario."""
    scenario = InclusionScenario(SCALE)
    model = reference_model(scenario)
    for batch in InclusionGenerator(scenario, seed=SEED).batches(500):
        model.executemany(batch.insert_sql, batch.rows)
    return model


def same_answer(engine, model, sql, purpose=None, params=()):
    """The engine answers ``sql`` as the model does — the same rows (in any
    order) under the same columns, or the same number of rows affected;
    returns how many."""
    got = engine.execute(sql, purpose=purpose, params=params)
    want = model.execute(sql, params, purpose=purpose)
    if isinstance(got, int):
        assert got == want.rowcount, (sql, params, purpose)
        return got
    assert got.columns == want.columns, sql
    # Row for row; a join may produce them in another order (its build side).
    assert sorted(map(repr, got.rows)) == sorted(map(repr, want.rows)), \
        (sql, params, purpose)
    return len(got.rows)
