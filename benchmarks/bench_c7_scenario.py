"""Experiment C7 — the GDPR-retention scenario suite as a macro-benchmark.

One seeded inclusion-platform workload (mixed point reads, range scans,
joins, aggregates, writes, live expiry waves and forensic scans) replays
against every engine variant — interpreted, compiled, remote —
with the differential oracle armed: besides QPS and tail latency per
variant, the run *proves* all three variants returned identical results and
the retention invariant held after every wave.

Assertions are structural (oracle clean, retention clean, every op ran);
timings are recorded, never asserted.  Set ``C7_ROWS`` / ``C7_OPS`` to
shrink the workload for CI smoke runs.
"""

import os

from repro.scenarios import (
    DifferentialOracle,
    InclusionGenerator,
    InclusionScenario,
    OpStream,
    VARIANT_NAMES,
    build_variants,
    format_failure,
)

from .conftest import print_table, record_bench

#: Scenario scale (= number of users; applications are 2x).
SCALE = int(os.environ.get("C7_ROWS", "1000"))
#: Mixed ops per run (the full-lifecycle epilogue rides on top).
OPS = int(os.environ.get("C7_OPS", "400"))
SEED = int(os.environ.get("C7_SEED", "7"))


def _quantile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def test_scenario_macro_workload_all_variants():
    scenario = InclusionScenario(SCALE)
    variants = build_variants(scenario)
    generator = InclusionGenerator(scenario, seed=SEED)
    try:
        loaded = {}
        for name, variant in variants.items():
            loaded = generator.load(variant.connection)
        stream = OpStream(scenario, seed=SEED, count=OPS)
        ops = stream.ops() + stream.epilogue(OPS)
        oracle = DifferentialOracle(variants,
                                    salaries=generator.sensitive_salaries())
        report = oracle.run(ops, fail_fast=False)
    finally:
        for variant in variants.values():
            variant.close()

    assert not report.mismatches, format_failure(SEED, report.mismatches)
    assert report.retention_violations == 0
    assert report.retention_checks > 0
    assert report.ops_run == len(ops)

    rows = []
    for name in VARIANT_NAMES:
        latencies = report.latencies[name]
        elapsed = sum(latencies)
        qps = round(len(latencies) / elapsed, 1) if elapsed else 0.0
        p50 = round(_quantile(latencies, 0.50) * 1000, 3)
        p99 = round(_quantile(latencies, 0.99) * 1000, 3)
        record_bench("c7", f"scenario_{name}",
                     rows_loaded=sum(loaded.values()), ops=len(latencies),
                     qps=qps, p50_ms=p50, p99_ms=p99,
                     oracle_mismatches=len(report.mismatches),
                     retention_checks=report.retention_checks,
                     retention_violations=report.retention_violations)
        rows.append([name, qps, p50, p99])
    print_table(
        f"C7: inclusion scenario @ scale {SCALE}, {len(ops)} ops "
        f"(seed {SEED}), oracle armed",
        ["variant", "qps", "p50 ms", "p99 ms"],
        rows,
    )
