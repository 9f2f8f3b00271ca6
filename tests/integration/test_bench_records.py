"""``benchmarks/conftest.py::record_bench`` keeps each ``BENCH_<tag>.json``
entry at the sizes it was measured at: a smoke run at other sizes leaves it
as it is and says so, a run at the same sizes replaces it."""

import json

from benchmarks.conftest import record_bench


def entries(directory, tag="c2"):
    with open(directory / f"BENCH_{tag}.json") as handle:
        return json.load(handle)


def test_a_smoke_run_keeps_the_full_size_entry(tmp_path, capsys):
    full = {"MASS_EXPIRY_N": 10000}
    assert record_bench("c2", "wave", sizes=full, results_dir=str(tmp_path), rate=98.0)
    assert not record_bench("c2", "wave", sizes={"MASS_EXPIRY_N": 200},
                            results_dir=str(tmp_path), rate=12.0)
    assert "kept BENCH_c2.json['wave']" in capsys.readouterr().out
    assert entries(tmp_path) == {"wave": {"rate": 98.0, "sizes": full}}
    assert record_bench("c2", "wave", sizes=dict(full), results_dir=str(tmp_path), rate=99.0)
    assert entries(tmp_path)["wave"] == {"rate": 99.0, "sizes": full}


def test_entries_of_other_scenarios_and_unsized_ones_merge(tmp_path):
    record_bench("c6", "clients_1", sizes={"C6_OPS": 40}, results_dir=str(tmp_path), qps=1.0)
    record_bench("c6", "clients_4", sizes={"C6_OPS": 10}, results_dir=str(tmp_path), qps=2.0)
    record_bench("c6", "timing", results_dir=str(tmp_path), mean=0.5)
    record_bench("c6", "timing", results_dir=str(tmp_path), mean=0.25)
    assert entries(tmp_path, "c6") == {
        "clients_1": {"qps": 1.0, "sizes": {"C6_OPS": 40}},
        "clients_4": {"qps": 2.0, "sizes": {"C6_OPS": 10}},
        "timing": {"mean": 0.25}}
