"""Seeded sabotages the reference model catches.

Each one breaks a layer that every engine variant shares — the store's row
reader, the planner, the degradation schedule — so two engines compared with
each other agree on the wrong answer.  The reference model shares none of
them (:mod:`repro.scenarios.reference`), so the differential oracle reports
the first three, with the op each first diverged on, and the engine-vs-model
state machine (:mod:`.test_model_machine`) fails on all four.  Under a
profile that shrinks (``--hypothesis-profile=long``) the machine's failing
rule sequence must come down to at most ten rules.
"""

import pytest
from hypothesis import Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.core.scheduler import DegradationScheduler, DegradationStep
from repro.devtools import invariants
from repro.query.compiler import collect_refs
from repro.query.planner import Planner, _conjunction, _flatten_and
from repro.scenarios import DifferentialOracle, InclusionScenario, Op, OpStream
from repro.storage.degradable_store import TableStore

from .conftest import build_loaded
from .test_model_machine import ModelMachine

SCALE = 30
SEED = 3


def oracle_run(ops):
    """Lockstep ``ops`` on the model and the embedded engine; returns the
    oracle's report."""
    scenario = InclusionScenario(SCALE)
    variants, generator = build_loaded(scenario, SEED, names=("reference", "compiled"))
    try:
        oracle = DifferentialOracle(variants, salaries=generator.sensitive_salaries(),
                                    check_retention=False)
        return oracle.run(ops, fail_fast=True)
    finally:
        for variant in variants.values():
            variant.close()


def stream_ops():
    stream = OpStream(InclusionScenario(SCALE), seed=SEED, count=200)
    return stream.ops() + stream.epilogue(200)


def test_an_unsabotaged_engine_agrees():
    assert oracle_run(stream_ops()).ok


def level_cap_off_by_one(monkeypatch):
    """Every scan lets a row through one level above what its purpose may
    see — on the header check and the page floor alike."""
    original = TableStore.row_reader

    def off_by_one(self, slots, early, level_caps=(), *args, **kwargs):
        return original(self, slots, early,
                        [(name, cap + 1) for name, cap in level_caps], *args, **kwargs)

    monkeypatch.setattr(TableStore, "row_reader", off_by_one)


def left_join_conjunct_pushed(monkeypatch):
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


def cohort_step_leaves_a_row_behind(monkeypatch):
    """A drain hands the applier a cohort's step without the cohort's
    newest row: the schedule moves the whole cohort on, the store degrades
    all rows but that one."""
    original = DegradationStep.__init__

    def short(self, cohort, *args, **kwargs):
        original(self, cohort, *args, **kwargs)
        self.record_ids = self.record_ids[:-1] or self.record_ids

    monkeypatch.setattr(DegradationStep, "__init__", short)


def last_transition_never_queued(monkeypatch):
    """Off by one in the schedule: an attribute's last transition is never
    queued, so nothing reaches its final state (or leaves the table)."""
    original = DegradationScheduler._schedule_next

    def short(self, cohort, attribute):
        if cohort.states[attribute] + 2 >= cohort.key[1].attributes[attribute].num_states:
            cohort.queued.pop(attribute, None)
            return
        original(self, cohort, attribute)

    monkeypatch.setattr(DegradationScheduler, "_schedule_next", short)


def test_a_level_cap_off_by_one_in_the_row_reader_is_caught(monkeypatch):
    level_cap_off_by_one(monkeypatch)
    report = oracle_run(stream_ops())
    assert report.mismatches
    # a read or a DML match saw a row its purpose may not: the clock agrees
    assert report.mismatches[0].op.kind not in ("wave", "forensic")


def test_a_left_join_right_side_conjunct_pushed_into_its_scan_is_caught(monkeypatch):
    left_join_conjunct_pushed(monkeypatch)
    sql = ("SELECT users.id, job_applications.id FROM users LEFT JOIN job_applications "
           "ON users.id = job_applications.user_id WHERE job_applications.status = ?")
    ops = [Op(index, "join", sql, (status,), "statistics")
           for index, status in enumerate(("accepted", "refused", "new"))]
    report = oracle_run(ops)
    assert report.mismatches
    expected, actual = report.mismatches[0].expected, report.mismatches[0].actual
    # the padded rows of users without such an application leak through
    assert len(actual.payload["rows"]) > len(expected.payload["rows"])


def test_a_cohort_step_that_leaves_a_row_behind_is_caught(monkeypatch):
    """The oracle catches it on its own: armed, the engine's wave check
    (tests/devtools/test_runtime_invariants.py::TestWaveCheck) would raise
    before the oracle compared anything, so it is held off here."""
    monkeypatch.setattr(invariants, "_enabled", False)
    cohort_step_leaves_a_row_behind(monkeypatch)
    report = oracle_run(stream_ops())
    assert report.mismatches
    first = report.mismatches[0]
    if first.op.kind == "wave":     # fewer row steps than the policy mandates
        assert first.actual.payload["steps"] < first.expected.payload["steps"]


@pytest.mark.parametrize("sabotage", [level_cap_off_by_one, left_join_conjunct_pushed,
                                      cohort_step_leaves_a_row_behind,
                                      last_transition_never_queued])
def test_the_model_machine_catches(sabotage, monkeypatch):
    """The machine fails under each sabotage; where the profile shrinks, the
    failing sequence it settles on is at most ten rules long."""
    sabotage(monkeypatch)
    with pytest.raises(AssertionError):     # the first failure ends the search
        run_state_machine_as_test(ModelMachine,
                                  settings=settings(settings.default, max_examples=1000))
    if Phase.shrink in settings.default.phases:
        assert len(ModelMachine.steps) <= 10, ModelMachine.steps
