"""``COUNT/SUM/AVG(DISTINCT …)`` keep the values seen in a set — a list only
for the unhashable degraded ones — and answer as the reference model does,
which dedups by equality: ``1``, ``1.0`` and ``True`` are one value, ``'A'``
and ``'a'`` two, NULL none."""

import pytest

from repro import InstantDB
from repro.core.values import NULL
from repro.query.operators import _Accumulator
from repro.scenarios.reference import ReferenceModel

ROWS = [(1, "g1", 1, 1.0, "A"), (2, "g1", 1, 1, "a"), (3, "g1", None, None, None),
        (4, "g2", 2, 2.5, "A"), (5, "g2", True, 1.0, "A"), (6, "g2", 1.0, True, "b"),
        (7, "g3", None, None, "a"), (8, "g3", 3, 3.0, None)]


@pytest.fixture
def pair():
    db = InstantDB()
    db.execute("CREATE TABLE m (id INT PRIMARY KEY, grp TEXT, i INT, f FLOAT, t TEXT)")
    model = ReferenceModel(db.catalog)
    for target in (db, model):
        target.executemany("INSERT INTO m VALUES (?, ?, ?, ?, ?)", ROWS)
    return db, model


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(DISTINCT i), SUM(DISTINCT i), AVG(DISTINCT i), COUNT(DISTINCT f), "
    "SUM(DISTINCT f), AVG(DISTINCT f), COUNT(DISTINCT t), COUNT(t) FROM m",
    "SELECT grp, COUNT(DISTINCT t), SUM(DISTINCT f), COUNT(DISTINCT i) FROM m "
    "GROUP BY grp ORDER BY grp",
    "SELECT t, COUNT(DISTINCT f), AVG(DISTINCT i) FROM m GROUP BY t",
])
def test_distinct_aggregates_answer_as_the_model(pair, sql):
    db, model = pair
    got, want = db.execute(sql).rows, model.execute(sql).rows
    assert got == want


def test_equal_values_are_one_and_unhashable_ones_still_count():
    counted = _Accumulator("COUNT", distinct=True)
    for value in (1, 1.0, True, "A", "a", NULL, [1, 2], [1, 2], {"x": 1}, "A"):
        counted.add(value)
    assert counted.result() == 5           # 1, 'A', 'a', [1, 2], {'x': 1}
    summed = _Accumulator("SUM", distinct=True)
    for value in range(20_000):
        summed.add(value % 5_000)
    assert summed.result() == sum(range(5_000))
