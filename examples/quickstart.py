#!/usr/bin/env python3
"""Quickstart: the paper's PERSON example through the PEP 249 driver API.

Builds the Fig. 1 location generalization tree, attaches the Fig. 2 life cycle
policy (address -1h-> city -1d-> region -1mo-> country -3mo-> removed), batch
inserts a few tuples with ``executemany``, declares the paper's STAT purpose
and watches the data degrade as simulated time advances.

This is the living documentation of ``repro.connect()``: connections own the
transaction, cursors bind ``?`` parameters, and query purposes are scoped per
connection (``examples/web_search_log.py`` calls the engine's statement entry,
``InstantDB.execute``, directly — one transaction per statement).

Run with:  python examples/quickstart.py
"""

import repro
from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges


def print_rows(title, cursor):
    print(f"\n{title}")
    rows = cursor.fetchall()
    if not rows:
        print("  (no tuple is computable at the demanded accuracy)")
        return
    names = [entry[0] for entry in cursor.description]
    for row in rows:
        print("  " + ", ".join(f"{key}={value}" for key, value in zip(names, row)))


def main() -> None:
    # 1. Register the attribute domains (generalization trees) and policies on
    #    the engine, then open a PEP 249 connection over it.
    db = InstantDB()
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        location, transitions=["1 hour", "1 day", "1 month", "3 months"],
        name="location_lcp"))
    db.register_policy(AttributeLCP(
        salary, transitions=["2 hours", "2 days", "2 months", "6 months"],
        name="salary_lcp"))

    with repro.connect(engine=db) as conn:
        cur = conn.cursor()

        # 2. Create the table: identity is stable, location and salary degrade.
        cur.execute("""
            CREATE TABLE person (
              id INT PRIMARY KEY,
              name TEXT,
              location TEXT DEGRADABLE DOMAIN location POLICY location_lcp,
              salary INT DEGRADABLE DOMAIN salary POLICY salary_lcp
            )
        """)
        print("CREATE TABLE person ->")
        print(db.describe())

        # 3. Batch insert events (always in the most accurate state): the
        #    INSERT is parsed once, bound three times, committed once.
        cur.executemany(
            "INSERT INTO person VALUES (?, ?, ?, ?)",
            [(1, "alice", "1 Main Street, Paris", 2500),
             (2, "bob", "2 Station Road, Lyon", 3100),
             (3, "carol", "3 Church Lane, Enschede", 1800)])
        conn.commit()

        # 4. Declare purposes: a user-facing service needs city accuracy, the
        #    statistics purpose of the paper needs country + salary ranges.
        cur.execute("DECLARE PURPOSE service SET ACCURACY LEVEL city "
                    "FOR person.location")
        cur.execute("DECLARE PURPOSE stat SET ACCURACY LEVEL country "
                    "FOR person.location, range1000 FOR person.salary")

        print_rows("t = 0 (accurate): SELECT * FROM person",
                   cur.execute("SELECT * FROM person"))

        # EXPLAIN shows the streaming operator pipeline: the access path the
        # planner chose (here a sequential scan — add a GT index to see
        # GTIndexScan), the residual predicate the filter still evaluates,
        # and the Limit operator that stops the scan early.  EXPLAIN ANALYZE
        # additionally runs the query and annotates every operator with the
        # rows that actually crossed it.
        print("\nEXPLAIN ANALYZE SELECT id, name FROM person "
              "WHERE salary > 1000 LIMIT 2 ->")
        for (line,) in cur.execute("EXPLAIN ANALYZE SELECT id, name FROM person "
                                   "WHERE salary > 1000 LIMIT 2"):
            print("  " + line)
        conn.commit()          # release the read locks before time advances

        # 5. Advance time: after 2 hours every address has become a city.
        db.advance_time(hours=2)
        print_rows("t = 2 hours, no purpose (level-0 demanded): SELECT * FROM person",
                   cur.execute("SELECT * FROM person"))
        print_rows("t = 2 hours, purpose 'service': SELECT id, name, location FROM person",
                   cur.execute("SELECT id, name, location FROM person",
                               purpose="service"))
        conn.commit()

        # 6. One month later the paper's example query still works at country
        #    level — with the predicate values bound as ? parameters.
        db.advance_time(days=40)
        conn.set_purpose("stat")
        print_rows("t = 40 days, purpose 'stat': the paper's example query",
                   cur.execute("SELECT * FROM person WHERE location LIKE ? "
                               "AND salary = ?", ("%France%", "2000-3000")))
        conn.commit()

        # 7. After the full life cycle every tuple has disappeared.
        db.advance_time(days=600)
        print(f"\nafter the full life cycle: {db.row_count('person')} rows remain, "
              f"{db.stats.rows_removed_by_policy} removed by policy, "
              f"{db.stats.degradation_steps_applied} degradation steps applied")


if __name__ == "__main__":
    main()
