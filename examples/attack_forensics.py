#!/usr/bin/env python3
"""Attack and forensic analysis of a degrading database.

Demonstrates the paper's security argument (§I, benefits 1 and 2):

1. a *snapshot attacker* compromising the server once captures only the tuples
   still in their accurate state — a small window under degradation, the whole
   database under traditional retention;
2. a *continuous attacker* must repeat the compromise faster than the shortest
   degradation step, which drives its detection probability towards one;
3. a *forensic attacker* inspecting raw pages, index keys and the WAL after the
   fact finds no trace of the degraded accurate values (for both the physical
   rewrite and the cryptographic erasure strategies).

Run with:  python examples/attack_forensics.py
"""

from repro import AttributeLCP, InstantDB
from repro.core.clock import DAY, HOUR, MINUTE
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.privacy.attack import sweep_attack_periods
from repro.privacy.exposure import accurate_lifetime_of_policy
from repro.privacy.forensic import scan_engine
from repro.workloads import LocationTraceGenerator, person_table_sql

NUM_EVENTS = 200


def build(strategy: str) -> tuple[InstantDB, list[float], list[str]]:
    db = InstantDB(strategy=strategy)
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        location, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="location_lcp"))
    db.register_policy(AttributeLCP(
        salary, transitions=["2 hours", "2 days", "2 months", "6 months"],
        name="salary_lcp"))
    db.execute(person_table_sql(policy_name="location_lcp", salary_policy="salary_lcp"))
    db.execute("CREATE INDEX idx_location ON person (location) USING gt")
    generator = LocationTraceGenerator(num_users=30, seed=19)
    insert_times, addresses = [], []
    for index, event in enumerate(generator.events(NUM_EVENTS, interval=5 * MINUTE),
                                  start=1):
        db.clock.advance_to(event.timestamp)
        row = event.as_row()
        row["id"] = index
        db.insert_row("person", row)
        insert_times.append(event.timestamp)
        addresses.append(event.address)
    return db, insert_times, addresses


def main() -> None:
    db, insert_times, addresses = build("rewrite")
    policy = db.catalog.policy_for("person", "location")
    accurate_lifetime = accurate_lifetime_of_policy(policy)
    horizon = db.now() + accurate_lifetime

    print("=== continuous attacker: capture vs detection (degradation) ===")
    print(f"shortest degradation step: {accurate_lifetime / MINUTE:.0f} minutes")
    points = sweep_attack_periods(insert_times, accurate_lifetime,
                                  periods=[10 * MINUTE, 30 * MINUTE, HOUR,
                                           6 * HOUR, DAY],
                                  horizon=horizon, detection_per_snapshot=0.02)
    print(f"{'attack period':>15s} {'captured':>10s} {'snapshots':>10s} {'P(detect)':>10s}")
    for point in points:
        print(f"{point.period / MINUTE:13.0f}m {point.capture_fraction:10.1%} "
              f"{point.snapshots:10d} {point.detection_probability:10.2f}")
    print("-> capturing most of the accurate data requires attacking faster than the "
          "shortest step, which makes the attack easy to detect.")

    print("\n=== forensic attacker: residual accurate values after degradation ===")
    for strategy in ("rewrite", "crypto"):
        db, _times, addresses = build(strategy)
        db.advance_time(hours=2)     # every address degraded to a city
        report = scan_engine(db, addresses[:50], table="person")
        print(f"strategy={strategy:8s}: scanned heap pages, WAL and index keys for "
              f"{report.values_searched} level-0 addresses -> {report.summary()}")

    print("\n=== what a naive engine would have leaked ===")
    from repro.storage.page import SlottedPage
    from repro.storage.wal import LogRecordType, WriteAheadLog, encode_delta
    page = SlottedPage(secure=False)
    slot = page.insert(addresses[0].encode())
    page.delete(slot)
    wal = WriteAheadLog()
    after, images = encode_delta([(1, 1, addresses[0].encode())])
    wal.append(LogRecordType.DELTA, 1, table="person", row_key=1, after=after, images=images)
    leaks = []
    if addresses[0].encode() in page.raw():
        leaks.append("free space of the data page")
    if addresses[0].encode() in wal.raw_image():
        leaks.append("write-ahead log")
    print(f"without secure reclamation and log scrubbing the address would survive in: "
          f"{', '.join(leaks)}")


if __name__ == "__main__":
    main()
