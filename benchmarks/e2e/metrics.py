"""The benchmark's metric table: names, units, directions, bounds, applicability.

Three groups:

* ``END_TO_END`` — what a user of the system sees, defined on **every**
  workload and never 0.  These are the ``end_to_end`` list of the root
  ``BENCHMARK.json`` (whose schema wants each metric on each workload) and are
  measured with tracing off.
* ``WORKLOAD_SPECIFIC`` — end-to-end metrics that exist only where the
  workload does that kind of work (``scan_analytic`` writes and degrades
  nothing), and four timings as the clock read them (``raw_*``).  They are
  measured with tracing off too and gated by ``compare.py`` with their own
  bounds; towards ``BENCHMARK.json`` they ride in the ``per_layer`` list as
  ``e2e.<name>`` (0 where they do not apply).
* ``PER_LAYER`` — one layer's work, from the traced run; no bound.  ``moves``
  and ``on`` say which end-to-end metric the layer metric is expected to move
  and on which workload — written down before measuring.

Every time outside ``raw_*`` and the per-layer ``*_ms`` is in nominal seconds:
the clock's reading divided by the machine's slowdown in the same half second
(``probes.SpeedMeter``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = ("oltp_mixed", "scan_analytic", "lifecycle", "remote_mixed")
_ALL = WORKLOADS
_DEGRADING = ("oltp_mixed", "lifecycle", "remote_mixed")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    bound: Optional[float] = None     # share of the base's median it may worsen by
    applies: Tuple[str, ...] = _ALL
    moves: str = ""                   # per-layer: the end-to-end metric it should move
    on: str = ""                      # per-layer: on which workload


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("stmt_per_s", "1/s", "higher", 0.25),
    Metric("stmt_p50_ms", "ms", "lower", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("space_per_user_byte", "ratio", "lower", 0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
)

WORKLOAD_SPECIFIC: Tuple[Metric, ...] = (
    # the sandbox's state, not the program's (17-54 % between identical sets): no bound
    Metric("raw_setup_s", "s", "lower"),
    Metric("raw_stmt_per_s", "1/s", "higher"),
    Metric("raw_stmt_p50_ms", "ms", "lower"),
    Metric("raw_read_p50_ms", "ms", "lower"),
    Metric("machine_slowdown", "ratio", "lower"),
    Metric("stmt_p95_ms", "ms", "lower", 0.40),
    Metric("stmt_p99_ms", "ms", "lower", 0.55,
           ("oltp_mixed", "scan_analytic", "remote_mixed")),
    Metric("write_p50_ms", "ms", "lower", 0.35, ("oltp_mixed", "remote_mixed")),
    Metric("modify_p50_ms", "ms", "lower", 0.25, ("oltp_mixed", "remote_mixed")),
    Metric("ingest_rows_per_s", "1/s", "higher", 0.30, ("lifecycle",)),
    Metric("degrade_steps_per_s", "1/s", "higher", 0.45, _DEGRADING),
    Metric("retention_lag_p50_ms", "ms", "lower", 0.20, _DEGRADING),
    Metric("retention_lag_p99_ms", "ms", "lower", 0.40, _DEGRADING),
    Metric("bytes_written_per_user_byte", "ratio", "lower", 0.01,
           ("oltp_mixed", "lifecycle")),
    Metric("failed_ops_share", "ratio", "lower", 0.0),
)

#: (metric, workload) pairs ``compare.py`` reports without a verdict although
#: the metric has a bound: five back-to-back seed-7 sets of the same code spread
#: (max − min) ÷ median wider than any usable bound (README, "Bounds from evidence").
UNGATED: Dict[Tuple[str, str], str] = {
    ("write_p50_ms", "remote_mixed"):
        "71 %: an insert takes 3 or 6 ms depending on the other client's table lock",
    ("retention_lag_p50_ms", "oltp_mixed"):
        "36 %: most steps sit in a handful of mass waves, each timed once",
    ("retention_lag_p50_ms", "remote_mixed"): "106 %: as oltp_mixed, plus executor queueing",
    ("retention_lag_p99_ms", "remote_mixed"): "71 %: as oltp_mixed, plus executor queueing",
}


def _layer(name: str, unit: str, better: str, moves: str, on: str,
           applies: Tuple[str, ...] = _ALL) -> Metric:
    return Metric(name, unit, better, None, applies, moves, on)


_REMOTE = ("remote_mixed",)

PER_LAYER: Tuple[Metric, ...] = (
    _layer("api.calls", "count", "lower", "stmt_p50_ms", "oltp_mixed"),
    _layer("api.self_ms", "ms", "lower", "stmt_p50_ms", "oltp_mixed"),
    _layer("engine.statement.calls", "count", "lower", "stmt_p50_ms", "oltp_mixed"),
    _layer("engine.statement.self_ms", "ms", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("query.parser.calls", "count", "lower", "stmt_p50_ms", "oltp_mixed"),
    _layer("query.parser.self_ms", "ms", "lower", "stmt_p50_ms", "oltp_mixed"),
    _layer("query.parser.cache_hit_share", "ratio", "higher", "stmt_p50_ms", "oltp_mixed"),
    _layer("query.planner.calls", "count", "lower", "read_p50_ms", "scan_analytic"),
    _layer("query.planner.self_ms", "ms", "lower", "read_p50_ms", "scan_analytic"),
    _layer("query.pipeline.self_ms", "ms", "lower", "read_p50_ms stmt_per_s write_p50_ms",
           "scan_analytic oltp_mixed"),
    _layer("query.pipeline.rows_out", "count", "higher", "read_p50_ms", "scan_analytic"),
    _layer("query.pipeline.rows_examined_per_row_out", "ratio", "lower",
           "read_p50_ms stmt_per_s", "scan_analytic oltp_mixed"),
    _layer("storage.store.read_calls", "count", "lower", "read_p50_ms", "scan_analytic"),
    _layer("storage.store.read_ms", "ms", "lower", "read_p50_ms", "scan_analytic"),
    _layer("storage.store.write_calls", "count", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("storage.store.write_ms", "ms", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("storage.store.degrade_ms", "ms", "lower", "degrade_steps_per_s", "lifecycle"),
    _layer("storage.buffer.get_calls", "count", "lower", "read_p50_ms", "scan_analytic"),
    _layer("storage.buffer.hit_share", "ratio", "higher", "read_p50_ms",
           "scan_analytic vs oltp_mixed"),
    _layer("storage.buffer.self_ms", "ms", "lower", "read_p50_ms", "scan_analytic"),
    _layer("storage.buffer.sync_calls", "count", "lower", "retention_lag_p99_ms", "lifecycle"),
    _layer("storage.buffer.sync_ms", "ms", "lower", "retention_lag_p99_ms", "lifecycle"),
    _layer("storage.wal.append_calls", "count", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("storage.wal.append_ms", "ms", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("storage.wal.flush_calls", "count", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("storage.wal.flush_ms", "ms", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("storage.wal.scrub_calls", "count", "lower",
           "degrade_steps_per_s retention_lag_p50_ms", "lifecycle oltp_mixed"),
    _layer("storage.wal.scrub_ms", "ms", "lower",
           "degrade_steps_per_s retention_lag_p50_ms", "lifecycle oltp_mixed"),
    _layer("storage.wal.truncate_ms", "ms", "lower", "stmt_p99_ms", "oltp_mixed"),
    _layer("storage.wal.bytes_written", "bytes", "lower", "bytes_written_per_user_byte",
           "oltp_mixed lifecycle"),
    _layer("index.search_calls", "count", "higher", "read_p50_ms", "oltp_mixed"),
    _layer("index.search_ms", "ms", "lower", "read_p50_ms", "oltp_mixed"),
    _layer("index.maintain_calls", "count", "lower",
           "write_p50_ms ingest_rows_per_s degrade_steps_per_s", "oltp_mixed lifecycle"),
    _layer("index.maintain_ms", "ms", "lower",
           "write_p50_ms ingest_rows_per_s degrade_steps_per_s", "oltp_mixed lifecycle"),
    _layer("core.scheduler.register_ms", "ms", "lower", "ingest_rows_per_s", "lifecycle"),
    _layer("core.scheduler.drain_ms", "ms", "lower", "degrade_steps_per_s", "lifecycle"),
    _layer("core.scheduler.steps", "count", "higher", "degrade_steps_per_s", "lifecycle"),
    _layer("engine.degrade.waves", "count", "lower", "retention_lag_p50_ms",
           "lifecycle oltp_mixed"),
    _layer("engine.degrade.steps_per_wave_p50", "count", "higher", "retention_lag_p50_ms",
           "lifecycle oltp_mixed"),
    _layer("engine.degrade.self_ms", "ms", "lower", "retention_lag_p50_ms",
           "lifecycle oltp_mixed"),
    _layer("engine.checkpoint.calls", "count", "lower", "stmt_p99_ms", "oltp_mixed lifecycle"),
    _layer("engine.checkpoint.ms", "ms", "lower", "stmt_p99_ms space_per_user_byte",
           "oltp_mixed lifecycle"),
    _layer("txn.lock_calls", "count", "lower", "stmt_per_s", "remote_mixed"),
    _layer("txn.lock_denied", "count", "lower", "stmt_per_s stmt_p99_ms", "remote_mixed"),
    _layer("txn.commit_ms", "ms", "lower", "write_p50_ms", "oltp_mixed"),
    _layer("txn.aborts_retried", "count", "lower", "stmt_per_s stmt_p99_ms", "remote_mixed"),
    _layer("txn.recovery.recover_s", "s", "lower", "", "all (durability check)"),
    _layer("txn.recovery.equal", "count", "higher", "", "all (durability check)"),
    _layer("server.protocol.encode_ms", "ms", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("server.protocol.decode_ms", "ms", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("server.protocol.frames", "count", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("server.protocol.bytes", "bytes", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("server.session.self_ms", "ms", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("server.session.exec_p50_ms", "ms", "lower", "stmt_p50_ms stmt_p99_ms",
           "remote_mixed", _REMOTE),
    _layer("server.session.queue_wait_p50_ms", "ms", "lower", "stmt_p50_ms stmt_p99_ms",
           "remote_mixed", _REMOTE),
    _layer("client.roundtrips_per_stmt", "ratio", "lower", "stmt_p50_ms", "remote_mixed",
           _REMOTE),
    _layer("client.self_ms", "ms", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("client.wait_ms", "ms", "lower", "stmt_p50_ms", "remote_mixed", _REMOTE),
    _layer("trace.overhead_share", "ratio", "lower", "", "all"),
    _layer("trace.coverage_share", "ratio", "higher", "", "all"),
    _layer("trace.unresolved", "count", "lower", "", "all"),
)


def driver_per_layer() -> List[Metric]:
    """The ``per_layer`` list of ``BENCHMARK.json``: the workload-specific
    end-to-end metrics (as ``e2e.<name>``, bound dropped) then the layers."""
    carried = [Metric("e2e." + m.name, m.unit, m.better, None, m.applies,
                      "end-to-end metric of the workloads it applies to", " ".join(m.applies))
               for m in WORKLOAD_SPECIFIC]
    return carried + list(PER_LAYER)


def gated() -> Dict[str, Metric]:
    """Every end-to-end metric ``compare.py`` shows (and, where it has a
    bound, holds to it), by name."""
    return {m.name: m for m in END_TO_END + WORKLOAD_SPECIFIC}


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the value ``fraction`` of the samples are
    at or below); ``samples`` must be non-empty."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def weighted_percentile(pairs: Sequence[Tuple[float, float]], fraction: float) -> float:
    """Percentile of ``value`` over ``(value, weight)`` pairs, each value
    counted ``weight`` times; the total weight must be positive."""
    ordered = sorted(pair for pair in pairs if pair[1] > 0)
    threshold = fraction * sum(weight for _value, weight in ordered)
    running = 0.0
    for value, weight in ordered:
        running += weight
        if running > threshold:
            return value
    return ordered[-1][0]
