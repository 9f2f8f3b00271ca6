"""Experiment C2 — technical challenge 2: timely, non-recoverable degradation.

"Degradation updates, as well as final removal from the database have to be
timely enforced ... The storage of degradable attributes, indexes and logs
have thus to be revisited."

Measured series: degradation-step throughput and lag for the two
non-recoverability strategies (physical rewrite vs cryptographic erasure), the
residual-plaintext forensic scan after each life-cycle stage, and the log
overhead each strategy pays.
"""

import pytest

from repro.core.clock import HOUR
from repro.privacy.forensic import scan_engine
from repro.workloads import LocationTraceGenerator

from .conftest import build_engine, load_trace, print_table

NUM_EVENTS = 120


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
def test_c2_step_throughput(benchmark, strategy):
    """Wall-clock cost of applying one full degradation wave (N tuples x 1 step)."""
    def run():
        db = build_engine(strategy=strategy)
        db.daemon.pause()
        load_trace(db, NUM_EVENTS, interval=1.0, seed=41)
        db.daemon.resume()
        db.advance_time(hours=2)          # every tuple owes exactly one location step
        return db.stats.degradation_steps_applied

    steps = benchmark(run)
    assert steps >= NUM_EVENTS


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
def test_c2_timeliness_lag(benchmark, strategy):
    """Lag between a step's scheduled due time and its application."""
    def run():
        db = build_engine(strategy=strategy)
        load_trace(db, NUM_EVENTS, interval=30.0, seed=43)
        # Advance in coarse ticks: steps due between ticks are applied late by
        # at most one tick, which is the lag the daemon reports.
        for _ in range(12):
            db.advance_time(minutes=30)
        stats = db.scheduler.stats
        return (stats.steps_applied, stats.mean_lag, stats.max_lag,
                stats.percentile_lag(0.95))

    steps, mean_lag, max_lag, p95 = benchmark(run)
    print_table(f"C2: degradation timeliness (strategy={strategy}, 30-min daemon ticks)",
                ["metric", "value"],
                [("steps applied", steps),
                 ("mean lag (s)", f"{mean_lag:.0f}"),
                 ("p95 lag (s)", f"{p95:.0f}"),
                 ("max lag (s)", f"{max_lag:.0f}")])
    assert steps >= NUM_EVENTS
    # Lag is bounded by the daemon tick (30 minutes).
    assert max_lag <= 30 * 60 + 1


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
def test_c2_forensic_scan_per_stage(benchmark, strategy):
    """Residual accurate plaintext in heap + WAL + indexes after each stage."""
    db = build_engine(strategy=strategy, with_indexes=True)
    generator = LocationTraceGenerator(num_users=20, seed=45)
    events = generator.events(60, interval=60.0)
    addresses = []
    for index, event in enumerate(events, start=1):
        db.clock.advance_to(event.timestamp)
        row = event.as_row()
        row["id"] = index
        db.insert_row("person", row)
        addresses.append(event.address)

    stages = []
    initial_report = scan_engine(db, addresses, table="person")
    stages.append(("right after collection", len(initial_report.residual_values)))
    db.advance_time(hours=2)
    report_city = benchmark(lambda: scan_engine(db, addresses, table="person"))
    stages.append(("after the city step (1 h)", len(report_city.residual_values)))
    db.advance_time(days=800)
    report_final = scan_engine(db, addresses, table="person")
    stages.append(("after the full life cycle", len(report_final.residual_values)))

    print_table(f"C2: level-0 addresses still recoverable (strategy={strategy})",
                ["stage", f"residual addresses (of {len(addresses)})"], stages)
    # Shape: plaintext may exist while accurate (rewrite strategy: data pages and
    # WAL; crypto strategy: only the index keys), but after the first step and
    # after removal nothing accurate is recoverable anywhere.
    assert stages[1][1] == 0
    assert stages[2][1] == 0
    if strategy == "crypto":
        channels = {finding.channel for finding in initial_report.findings}
        assert all(channel.startswith("index:") for channel in channels)


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
def test_c2_log_overhead(benchmark, strategy):
    """WAL maintenance each strategy pays for non-recoverability."""
    def run():
        db = build_engine(strategy=strategy)
        load_trace(db, 80, interval=1.0, seed=47)
        db.advance_time(hours=2)
        wal_stats = db.wal.stats
        return (wal_stats.appended, wal_stats.scrub_passes, wal_stats.scrubbed_records,
                len(db.wal))

    appended, scrub_passes, scrubbed_records, live_records = benchmark(run)
    print_table(f"C2: WAL overhead (strategy={strategy})",
                ["metric", "value"],
                [("records appended", appended),
                 ("scrub passes", scrub_passes),
                 ("record images scrubbed", scrubbed_records),
                 ("records in log", live_records)])
    if strategy == "rewrite":
        # The rewrite strategy must scrub the accurate insert images, but the
        # batched pipeline pays one log rewrite per degradation batch, not one
        # per step.
        assert scrubbed_records >= 80
        assert 1 <= scrub_passes <= 8
    else:
        # Crypto-erasure never rewrites the log for degradation steps.
        assert scrub_passes == 0


def test_c2_catch_up_after_downtime(benchmark):
    """A daemon that was down applies every missed step on the next tick."""
    def run():
        db = build_engine()
        load_trace(db, 60, interval=60.0, seed=49)
        db.daemon.pause()
        db.advance_time(days=2)                    # many steps become overdue
        overdue = db.daemon.backlog()
        db.daemon.resume()
        db.advance_time(seconds=1)
        return overdue, db.scheduler.stats.max_lag, db.daemon.backlog()

    overdue, max_lag, backlog_after = benchmark(run)
    print_table("C2: catch-up after daemon downtime",
                ["metric", "value"],
                [("steps overdue while down", overdue),
                 ("max lag once caught up (s)", f"{max_lag:.0f}"),
                 ("backlog after catch-up", backlog_after)])
    assert overdue > 0
    assert backlog_after == 0
    assert max_lag > 0
