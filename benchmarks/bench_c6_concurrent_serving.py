"""Experiment C6 — concurrent serving: QPS and tail latency vs client count.

The serving subsystem multiplexes many network clients over the lock-based
single-writer engine while the degradation daemon keeps firing.  This
experiment drives a mixed read/write workload (INSERT + commit, then a
purpose-scoped SELECT) from 1, 4 and 16 concurrent client connections
against a live server, with a background *expiry wave* thread advancing the
simulated clock on the server's loop thread the whole time — the paper's
timely-degradation guarantee staying active under network load.

Measured series per client count: aggregate statements/second, client-side
p50/p99 statement latency, lock-conflict aborts observed (and retried), and
the server's own latency quantiles from its metrics window.

Assertions are structural only (every operation completes, conflicts surface
as typed ``TransactionAborted``, the server serves all sessions) so CI
timing noise cannot fail the job; set ``C6_OPS`` to shrink the workload for
smoke runs.
"""

import os
import threading
import time

from repro.client import connect
from repro.core.errors import TransactionAborted
from repro.server import ServerThread

from .conftest import build_engine, print_table, record_bench

#: Operations per client; override with C6_OPS for CI smoke runs.
OPS_PER_CLIENT = int(os.environ.get("C6_OPS", "40"))
CLIENT_COUNTS = [int(n) for n in
                 os.environ.get("C6_CLIENTS", "1,4,16").split(",")]
WAVE_INTERVAL_S = float(os.environ.get("C6_WAVE_MS", "5")) / 1000.0

PURPOSE_SQL = ("DECLARE PURPOSE c6 SET ACCURACY LEVEL city "
               "FOR person.location")


def _quantile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _client_worker(address, worker_id, ops, latencies, aborts, errors):
    try:
        conn = connect(*address, purpose="c6")
        for index in range(ops):
            row_id = worker_id * 100_000 + index
            started = time.perf_counter()
            while True:
                try:
                    conn.execute(
                        "INSERT INTO person (id, location) VALUES (?, ?)",
                        (row_id, "1 Main Street, Paris"))
                    conn.commit()
                    break
                except TransactionAborted:
                    aborts.append(1)
                    conn.rollback()
                    time.sleep(0.0005)
            while True:
                try:
                    conn.execute("SELECT COUNT(*) AS n FROM person "
                                 "WHERE id = ?", (row_id,)).fetchall()
                    conn.commit()
                    break
                except TransactionAborted:
                    aborts.append(1)
                    conn.rollback()
                    time.sleep(0.0005)
            latencies.append(time.perf_counter() - started)
        conn.close()
    except Exception as error:                  # pragma: no cover
        errors.append(error)


def _run_scenario(num_clients):
    engine = build_engine()
    engine.execute(PURPOSE_SQL)
    server = ServerThread(engine, max_sessions=num_clients + 4).start()
    latencies, aborts, errors = [], [], []
    stop_waves = threading.Event()

    def wave_worker():
        # every wave runs on the server's loop thread, serialized with statements
        while not stop_waves.is_set():
            server.submit(lambda: engine.advance_time(minutes=30))
            time.sleep(WAVE_INTERVAL_S)

    waves = threading.Thread(target=wave_worker)
    clients = [threading.Thread(target=_client_worker,
                                args=(server.address, n, OPS_PER_CLIENT,
                                      latencies, aborts, errors))
               for n in range(num_clients)]
    waves.start()
    started = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - started
    stop_waves.set()
    waves.join(timeout=10)
    snapshot = server.metrics()
    server.stop(drain=False)

    assert errors == [], errors
    assert len(latencies) == num_clients * OPS_PER_CLIENT
    assert snapshot["sessions_opened"] >= num_clients
    # each loop iteration is 2 statements + commit frames; the server must
    # have recorded at least the statements
    assert snapshot["statements"] >= 2 * num_clients * OPS_PER_CLIENT

    total_ops = len(latencies) * 2              # statements per iteration
    return {
        "clients": num_clients,
        "qps": round(total_ops / elapsed, 1),
        "p50_ms": round(_quantile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_quantile(latencies, 0.99) * 1000, 3),
        "aborts_retried": len(aborts),
        "server_p50_ms": round((snapshot["latency_p50"] or 0) * 1000, 3),
        "server_p99_ms": round((snapshot["latency_p99"] or 0) * 1000, 3),
        "expiry_waves": True,
    }


def test_concurrent_serving_qps_and_tail_latency():
    results = [_run_scenario(n) for n in CLIENT_COUNTS]
    for result in results:
        record_bench("c6", f"clients_{result['clients']}",
                     sizes={"C6_OPS": OPS_PER_CLIENT, "C6_WAVE_MS": WAVE_INTERVAL_S * 1000},
                     **{k: v for k, v in result.items() if k != "clients"})
    print_table(
        "C6: mixed read/write serving under live expiry waves "
        f"({OPS_PER_CLIENT} ops/client)",
        ["clients", "qps", "p50 ms", "p99 ms", "aborts", "srv p99 ms"],
        [[r["clients"], r["qps"], r["p50_ms"], r["p99_ms"],
          r["aborts_retried"], r["server_p99_ms"]] for r in results],
    )
    # tail latency is well-defined and ordered in every scenario
    for result in results:
        assert result["p99_ms"] >= result["p50_ms"]
