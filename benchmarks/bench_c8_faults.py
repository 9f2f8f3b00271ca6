"""Experiment C8 — serving under injected faults: throughput and retention lag.

The same seeded inclusion-platform stream as C7 replays against a victim
engine whose durability seams (WAL flush/scrub, pager sync — plus both
wire directions for the remote variant) fail at a *fixed seeded rate*,
while the driver heals the way a deployment would: per-op retries,
reconnects, ``recover()`` out of read-only degraded mode.  An unfaulted
baseline run of the same stream gives the throughput denominator.

Reported per variant: healed QPS vs baseline QPS (the price of the fault
rate), retries / recoveries / reconnects, and the retention lag the faults
caused — degradation steps deferred by faulted waves, all of which must
drain to zero violations once the device heals.

Assertions are structural (every op ran, retention clean after the drain,
no deferred step left behind); timings are recorded, never asserted.  Set
``C8_ROWS`` / ``C8_OPS`` / ``C8_FAULT_RATE`` / ``C8_VARIANTS`` to shrink
or refocus the workload for CI smoke runs.
"""

import os
import time

from repro.engine.database import InstantDB
from repro.scenarios import InclusionScenario
from repro.scenarios.chaos import (
    ChaosRunner,
    ENGINE_FAULT_SITES,
    NETWORK_FAULT_SITES,
)
from repro.scenarios.retention import retention_report

from .conftest import print_table, record_bench

DAY = 86400.0
SCALE = int(os.environ.get("C8_ROWS", "200"))
OPS = int(os.environ.get("C8_OPS", "200"))
SEED = int(os.environ.get("C8_SEED", "11"))
FAULT_RATE = float(os.environ.get("C8_FAULT_RATE", "0.01"))
VARIANTS = tuple(
    os.environ.get("C8_VARIANTS", "compiled,remote").split(","))


def _run(variant, data_dir, fault_rate):
    """Replay the stream, healing throughout; returns (runner, elapsed)."""
    runner = ChaosRunner(variant, InclusionScenario(SCALE), seed=SEED,
                         fault_seed=SEED, data_dir=data_dir, ops=OPS)
    runner._build()
    if fault_rate > 0:
        sites = dict(ENGINE_FAULT_SITES)
        if variant == "remote":
            sites.update(NETWORK_FAULT_SITES)
        for site, kinds in sorted(sites.items()):
            if site == "clock.advance":
                continue  # a skipping clock distorts the lag measurement
            runner.plan.fail_with_probability(site, kinds[0], fault_rate)
    started = time.perf_counter()
    runner._replay_stream()
    elapsed = time.perf_counter() - started
    return runner, elapsed


def _drain_and_report(runner):
    """Heal the device, drain deferred waves, and check retention."""
    runner.plan.disarm()
    if runner.victim.engine_call(lambda db: db.read_only):
        runner.victim.engine_call(lambda db: db.recover(drain=True))
    deferred = runner.victim.engine_call(
        lambda db: db.daemon.stats.steps_deferred_by_fault)
    # every deferred wave retries within its backoff; a day covers them all
    for _ in range(2):
        runner.victim.advance(DAY)
    retention = runner.victim.engine_call(
        lambda db: retention_report(db, runner.salaries))
    return deferred, retention


def test_throughput_and_retention_lag_under_faults(tmp_path):
    rows = []
    for variant in VARIANTS:
        baseline, base_elapsed = _run(
            variant, str(tmp_path / f"{variant}-baseline"), fault_rate=0.0)
        try:
            assert baseline.report.retries == 0
            base_ops = baseline.report.ops_run
        finally:
            baseline.plan.disarm()
            baseline.victim.close()
            baseline.twin.close()

        faulted, fault_elapsed = _run(
            variant, str(tmp_path / f"{variant}-faulted"),
            fault_rate=FAULT_RATE)
        try:
            report = faulted.report
            assert report.ops_run == base_ops
            deferred, retention = _drain_and_report(faulted)
            assert retention == {"violations": 0, "leaks": 0}, retention
        finally:
            faulted.victim.close()
            faulted.twin.close()

        base_qps = round(base_ops / base_elapsed, 1) if base_elapsed else 0.0
        qps = round(report.ops_run / fault_elapsed, 1) if fault_elapsed else 0.0
        record_bench("c8", f"faults_{variant}",
                     scale=SCALE, ops=report.ops_run,
                     fault_rate=FAULT_RATE, faults_fired=len(faulted.plan.fired),
                     qps=qps, baseline_qps=base_qps,
                     retries=report.retries, recoveries=report.recoveries,
                     reconnects=report.reconnects,
                     steps_deferred_by_fault=deferred,
                     retention_violations=retention["violations"],
                     forensic_leaks=retention["leaks"])
        rows.append([variant, base_qps, qps, len(faulted.plan.fired),
                     report.retries, report.recoveries, deferred])
    print_table(
        f"C8: faulted serving @ scale {SCALE}, {OPS} ops, "
        f"fault rate {FAULT_RATE} (seed {SEED})",
        ["variant", "clean qps", "faulted qps", "faults", "retries",
         "recoveries", "deferred steps"],
        rows,
    )
