"""What the twin-engine equivalence tests of this directory share: the statement
texts the oracles and the benchmark really send, and a seeded scenario load."""

import pytest

from benchmarks.e2e import workloads
from repro import InstantDB
from repro.scenarios import InclusionGenerator, InclusionScenario, OpStream

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


def loaded_engine(optimized, **options):
    """An engine holding the seeded inclusion scenario at :data:`SCALE`."""
    engine = InstantDB(read_path_optimizations=optimized, **options)
    scenario = InclusionScenario(SCALE)
    scenario.install(engine)
    for batch in InclusionGenerator(scenario, seed=SEED).batches(500):
        engine.executemany(batch.insert_sql, batch.rows)
    return engine
