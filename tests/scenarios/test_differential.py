"""The cross-engine differential oracle, run for real.

Five fixed seeds, ~200 mixed ops each (plus a full-lifecycle epilogue),
replayed in lockstep against both engine variants with the reference model
of :mod:`repro.scenarios.reference` as the ground truth.  Any disagreement
fails with the seed and a minimized op trace, so a regression here is
immediately reproducible from the failure message alone.
"""

import pytest

from repro.scenarios import (
    DifferentialOracle,
    InclusionGenerator,
    InclusionScenario,
    OpStream,
    format_failure,
    minimize_trace,
)

from .conftest import build_loaded

SEEDS = (1, 2, 3, 5, 8)
SCALE = 40
OPS = 200


def run_seed(seed, check_retention=True):
    scenario = InclusionScenario(SCALE)
    variants, generator = build_loaded(scenario, seed)
    try:
        stream = OpStream(scenario, seed=seed, count=OPS)
        ops = stream.ops() + stream.epilogue(OPS)
        oracle = DifferentialOracle(variants,
                                    salaries=generator.sensitive_salaries(),
                                    check_retention=check_retention)
        return oracle.run(ops, fail_fast=False), ops, generator
    finally:
        for variant in variants.values():
            variant.close()


def fail_with_trace(seed, report, ops, generator):
    """Shrink to a reproducer on the first disagreeing pair, then fail."""
    first = report.mismatches[0]

    def build_pair():
        scenario = InclusionScenario(SCALE)
        pair, _ = build_loaded(scenario, seed,
                               names=(first.reference, first.variant))
        return pair[first.reference], pair[first.variant]

    trace = minimize_trace(build_pair, ops, first,
                           salaries=generator.sensitive_salaries())
    pytest.fail(format_failure(seed, report.mismatches, trace))


@pytest.mark.parametrize("seed", SEEDS)
def test_all_variants_agree(seed):
    report, ops, generator = run_seed(seed)
    if report.mismatches:
        fail_with_trace(seed, report, ops, generator)
    assert report.ops_run == len(ops)
    assert report.retention_violations == 0
    assert report.retention_checks > 0
    # the mix exercised every op kind, including waves and forensic scans
    assert set(report.kind_counts) >= {"point_read", "insert", "wave"}


def test_edge_semantics_agree_across_variants():
    """Edges the random mix rarely hits, pinned explicitly: no-purpose reads
    of degraded attributes (stored-accuracy observation), deletes of rows the
    policy already removed, and the typed refusal to update a degradable
    column — both variants must behave as the model does."""
    from repro.core.errors import PolicyError
    from repro.scenarios import Op, run_op

    scenario = InclusionScenario(30)
    variants, generator = build_loaded(scenario, 9)
    try:
        for variant in variants.values():
            variant.advance(4 * 86400.0)
        # updates to degradable columns are refused uniformly
        for variant in variants.values():
            with pytest.raises(PolicyError):
                variant.execute(
                    "UPDATE job_applications SET applicant_address = ? "
                    "WHERE id = ?", ("9 Rue Centrale, Paris", 3))
            variant.rollback()
        probes = [
            Op(0, "point_read",
               "SELECT id, address, health_note FROM users ORDER BY id", (),
               None, True, tables=("users",)),
            Op(1, "aggregate",
               "SELECT applicant_address, COUNT(*) AS n "
               "FROM job_applications GROUP BY applicant_address", (),
               None, tables=("job_applications",)),
        ]
        for variant in variants.values():
            variant.advance(90 * 86400.0)   # employee_records fully removed
        probes.append(Op(2, "delete",
                         "DELETE FROM employee_records WHERE id = ?", (1,),
                         tables=("employee_records",)))
        probes.append(Op(3, "aggregate",
                         "SELECT COUNT(*) AS n FROM employee_records", (),
                         None, True, tables=("employee_records",)))
        for op in probes:
            results = {name: run_op(variant, op)
                       for name, variant in variants.items()}
            reference = results["reference"]
            for name, result in results.items():
                assert result.matches(reference), (op.describe(), name)
    finally:
        for variant in variants.values():
            variant.close()


def test_oracle_catches_a_diverging_engine():
    """Sanity check that the oracle can actually fail: skew one variant's
    clock mid-stream and the wave payloads (and every later read) diverge."""
    scenario = InclusionScenario(20)
    variants, generator = build_loaded(scenario, 4,
                                       names=("reference", "compiled"))
    try:
        variants["compiled"].engine.advance_time(86400.0)  # sabotage
        stream = OpStream(scenario, seed=4, count=40)
        oracle = DifferentialOracle(variants,
                                    salaries=generator.sensitive_salaries(),
                                    check_retention=False)
        report = oracle.run(stream.ops(), fail_fast=True)
        assert report.mismatches
        text = format_failure(4, report.mismatches)
        assert "seed=4" in text and "reference" in text
    finally:
        for variant in variants.values():
            variant.close()


def test_minimizer_shrinks_a_failing_trace():
    """The minimized trace still reproduces and is genuinely smaller."""
    scenario = InclusionScenario(20)
    variants, generator = build_loaded(scenario, 6,
                                       names=("reference", "compiled"))
    try:
        variants["compiled"].engine.advance_time(86400.0)
        stream = OpStream(scenario, seed=6, count=60)
        ops = stream.ops()
        oracle = DifferentialOracle(variants, check_retention=False)
        report = oracle.run(ops, fail_fast=True)
        assert report.mismatches
    finally:
        for variant in variants.values():
            variant.close()
    first = report.mismatches[0]

    def build_pair():
        pair, _ = build_loaded(InclusionScenario(20), 6,
                               names=("reference", "compiled"))
        # reproduce the sabotage so the divergence is deterministic
        pair["compiled"].engine.advance_time(86400.0)
        return pair["reference"], pair["compiled"]

    trace = minimize_trace(build_pair, ops, first, budget=8)
    assert trace
    assert len(trace) < len([op for op in ops
                             if op.index <= first.op.index]) or len(trace) == 1
    assert trace[-1].index <= first.op.index
