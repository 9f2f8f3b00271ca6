"""Batch index maintenance: ``Index.insert_many`` / ``delete_many``.

A statement's rows reach each index in one call (``InstantDB._apply_delta``).
Whatever an index does with the batch — the hash index inlines it, the
others loop — it must leave the state the per-row ``insert`` / ``delete``
sequence leaves: the same keys, entries, answers, raw image and counters.
The hash index is also checked against a model of its buckets: the keys are
drawn from a few values and the row keys from forty, so they repeat — a
key's bucket is its one row key as an int, a set only while several rows
share the key, and an int again when one is left.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import build_location_tree
from repro.core.values import NULL
from repro.index.bitmap import BitmapIndex
from repro.index.btree import BPlusTreeIndex
from repro.index.gt_index import GTIndex
from repro.index.hashindex import HashIndex

LOCATION = build_location_tree()

#: kind → (a fresh index, an entry ``(key, level)`` strategy)
KINDS = {
    "hash": (lambda: HashIndex("h"), st.tuples(st.one_of(
        st.integers(0, 6), st.sampled_from(["a", "b", "A"]), st.just(NULL),
        st.lists(st.integers(0, 2), max_size=2)), st.none())),
    "btree": (lambda: BPlusTreeIndex("b", order=4), st.tuples(st.integers(0, 30), st.none())),
    "gt": (lambda: GTIndex("g", LOCATION), st.builds(
        lambda leaf, level: (LOCATION.generalize(leaf, level), level),
        st.sampled_from(LOCATION.leaves()[:6]), st.integers(0, LOCATION.max_level - 1))),
    "bitmap": (lambda: BitmapIndex("m"), st.tuples(st.sampled_from([1, 2, "x", NULL]),
                                                     st.none())),
}


def contents(index, probes):
    return (list(index.keys()), len(index), index.raw_image(),
            [index.search(key) for key in probes], vars(index.stats))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_batch_leaves_the_state_its_rows_one_by_one_leave(data):
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    make, entries = KINDS[kind]
    batched, single = make(), make()
    held = []       # (key, row key, level) entries entered so far
    model = {}      # hash index: surrogate key → the row keys it holds
    for _ in range(data.draw(st.integers(1, 6))):
        if held and data.draw(st.booleans()):
            batch = data.draw(st.lists(st.sampled_from(held), max_size=8))
            batch += [(key, row_key + 100, level) for key, row_key, level in
                      data.draw(st.lists(st.sampled_from(held), max_size=2))]  # not held
            keys, row_keys, levels = zip(*batch) if batch else ((), (), ())
            batched.delete_many(keys, row_keys, levels)
            for key, row_key, level in batch:
                single.delete(key, row_key, level)
                model.get(repr(key) if type(key) is list else key, set()).discard(row_key)
        else:
            batch = [(key, data.draw(st.integers(1, 40)), level)
                     for key, level in data.draw(st.lists(entries, max_size=10))]
            keys, row_keys, levels = zip(*batch) if batch else ((), (), ())
            batched.insert_many(keys, row_keys, levels)
            for key, row_key, level in batch:
                single.insert(key, row_key, level)
                model.setdefault(repr(key) if type(key) is list else key, set()).add(row_key)
            held += batch
        probes = [key for key, _row_key, _level in held]
        assert contents(batched, probes) == contents(single, probes)
        if kind == "hash":
            buckets = {key: rows for key, rows in model.items() if rows}
            assert {key: [bucket] if type(bucket) is int else sorted(bucket)
                    for key, bucket in batched._buckets.items()} == \
                {key: sorted(rows) for key, rows in buckets.items()}
            assert all((type(bucket) is int) == (len(buckets[key]) == 1)
                       for key, bucket in batched._buckets.items())
            assert set(batched._display_keys) == {key for key in buckets if type(key) is str
                                                  and key.startswith("[")}
    batched.verify()
