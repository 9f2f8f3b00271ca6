"""Three seeded sabotages the reference model catches.

Each one breaks a layer that every engine variant shares — the store's row
reader, the planner, the degradation schedule — so two engines compared with
each other agree on the wrong answer.  The reference model shares none of
them (:mod:`repro.scenarios.reference`), so the differential oracle reports
each one, with the op it first diverged on.
"""

import pytest

from repro.core.scheduler import DegradationScheduler
from repro.query.compiler import collect_refs
from repro.query.planner import Planner, _conjunction, _flatten_and
from repro.scenarios import DifferentialOracle, InclusionScenario, Op, OpStream
from repro.storage.degradable_store import TableStore

from .conftest import build_loaded

SCALE = 30
SEED = 3


def oracle_run(ops, prepare=None):
    """Lockstep ``ops`` on the model and the embedded engine (``prepare``
    adjusts the engine first); returns the oracle's report."""
    scenario = InclusionScenario(SCALE)
    variants, generator = build_loaded(scenario, SEED, names=("reference", "compiled"))
    try:
        if prepare is not None:
            prepare(variants["compiled"].engine)
        oracle = DifferentialOracle(variants, salaries=generator.sensitive_salaries(),
                                    check_retention=False)
        return oracle.run(ops, fail_fast=True)
    finally:
        for variant in variants.values():
            variant.close()


def stream_ops():
    stream = OpStream(InclusionScenario(SCALE), seed=SEED, count=200)
    return stream.ops() + stream.epilogue(200)


def small_batches(engine):
    """Drain rounds of at most 7 rows: waves cut cohorts in two."""
    engine.daemon.max_batch = 7


@pytest.mark.parametrize("prepare", [None, small_batches], ids=["default", "max_batch_7"])
def test_an_unsabotaged_engine_agrees(prepare):
    assert oracle_run(stream_ops(), prepare).ok


def test_a_level_cap_off_by_one_in_the_row_reader_is_caught(monkeypatch):
    """Every scan lets a row through one level above what its purpose may
    see — on the header check and the page floor alike."""
    original = TableStore.row_reader

    def off_by_one(self, slots, early, level_caps=(), *args, **kwargs):
        return original(self, slots, early,
                        [(name, cap + 1) for name, cap in level_caps], *args, **kwargs)

    monkeypatch.setattr(TableStore, "row_reader", off_by_one)
    report = oracle_run(stream_ops())
    assert report.mismatches
    # a read or a DML match saw a row its purpose may not: the clock agrees
    assert report.mismatches[0].op.kind not in ("wave", "forensic")


def test_a_left_join_right_side_conjunct_pushed_into_its_scan_is_caught(monkeypatch):
    """The planner moves a WHERE conjunct on a LEFT JOIN's right table into
    that table's scan, where it can no longer see the NULL padding."""
    original = Planner.plan_physical

    def pushed(self, statement, purpose=None):
        plan = original(self, statement, purpose)
        for clause, scan in plan.joins:
            if clause.kind != "left" or plan.residual is None:
                continue
            conjuncts = _flatten_and(plan.residual)
            mine = [conjunct for conjunct in conjuncts
                    if {ref.table for ref in collect_refs(conjunct, [])} == {scan.alias}]
            scan.filter = _conjunction(mine)
            plan.residual = _conjunction([c for c in conjuncts if c not in mine])
        return plan

    monkeypatch.setattr(Planner, "plan_physical", pushed)
    sql = ("SELECT users.id, job_applications.id FROM users LEFT JOIN job_applications "
           "ON users.id = job_applications.user_id WHERE job_applications.status = ?")
    ops = [Op(index, "join", sql, (status,), "statistics", tables=("users", "job_applications"))
           for index, status in enumerate(("accepted", "refused", "new"))]
    report = oracle_run(ops)
    assert report.mismatches
    expected, actual = report.mismatches[0].expected, report.mismatches[0].actual
    # the padded rows of users without such an application leak through
    assert len(actual.payload["rows"]) > len(expected.payload["rows"])


def test_a_cohort_split_that_leaves_half_its_rows_behind_is_caught(monkeypatch):
    """Cutting a cohort at the drain's batch limit gives the split-off part
    no queue entry: its rows stay in the old state for good."""
    original = DegradationScheduler._split

    def stranded(self, cohort, record_ids):
        part = original(self, cohort, record_ids)
        cohort.queued.clear()       # the rest's heap entries go stale
        return part

    monkeypatch.setattr(DegradationScheduler, "_split", stranded)
    report = oracle_run(stream_ops(), prepare=small_batches)
    assert report.mismatches
    first = report.mismatches[0]
    if first.op.kind == "wave":     # fewer row steps than the policy mandates
        assert first.actual.payload["steps"] < first.expected.payload["steps"]
