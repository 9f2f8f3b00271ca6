"""The cross-engine differential oracle, run for real.

Five fixed seeds, ~200 mixed ops each (plus a full-lifecycle epilogue),
replayed in lockstep against both engine variants with the reference model
of :mod:`repro.scenarios.reference` as the ground truth.  Any disagreement
fails with the seed and every mismatching op, so a regression here is
reproducible from the failure message alone; the state machine of
:mod:`.test_model_machine` shrinks what it finds to a minimal rule sequence.
"""

import pytest

from repro.scenarios import (DifferentialOracle, InclusionScenario, Op, OpStream, build_variants,
                             format_failure, run_op)

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
        return oracle.run(ops, fail_fast=False), ops
    finally:
        for variant in variants.values():
            variant.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_all_variants_agree(seed):
    report, ops = run_seed(seed)
    if report.mismatches:
        pytest.fail(format_failure(seed, report.mismatches))
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
               None, True),
            Op(1, "aggregate",
               "SELECT applicant_address, COUNT(*) AS n "
               "FROM job_applications GROUP BY applicant_address", (),
               None),
        ]
        for variant in variants.values():
            variant.advance(90 * 86400.0)   # employee_records fully removed
        probes.append(Op(2, "delete",
                         "DELETE FROM employee_records WHERE id = ?", (1,)))
        probes.append(Op(3, "aggregate",
                         "SELECT COUNT(*) AS n FROM employee_records", (),
                         None, True))
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


def test_executemany_agrees_across_variants():
    """One batch insert on the model and on both engine variants: the same
    row count, then the same rows."""
    sql = "INSERT INTO companies (id, name, city, sector) VALUES (?, ?, ?, ?)"
    batch = [(1, "Acme", "Paris", "care"), (2, "Bolt", "Lyon", "retail")]
    read = Op(0, "range_scan", "SELECT id, name, city FROM companies ORDER BY id", (),
              None, True)
    variants = build_variants(InclusionScenario(20))
    try:
        counts = {name: variant.executemany(sql, batch).rowcount
                  for name, variant in variants.items()}
        assert set(counts.values()) == {2}, counts
        results = {name: run_op(variant, read) for name, variant in variants.items()}
        assert results["reference"].payload["rows"] == [(1, "Acme", "Paris"),
                                                        (2, "Bolt", "Lyon")]
        for name, result in results.items():
            assert result.matches(results["reference"]), name
    finally:
        for variant in variants.values():
            variant.close()
