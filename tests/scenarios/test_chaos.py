"""Chaos mode: the scenario oracle under a seeded fault schedule.

Every variant replays a seeded op stream while its I/O seams fail on a
seeded schedule — WAL flush errors, torn writes, ENOSPC, pager sync faults,
dropped/stalled/truncated sockets, clock skips.  The run must heal (retry,
reconnect, recover), end with zero retention violations and zero forensic
leaks, answer read-backs identically to an unfaulted twin after a cold
one-call reopen, and prove every armed fault actually fired.

Seeds come from ``REPRO_CHAOS_SEED`` / ``REPRO_CHAOS_FAULT_SEED`` when set
(for reproducing a reported failure), with fixed defaults otherwise; every
failure message carries both seeds so the run can be replayed exactly.
"""

import os

import pytest

from repro.scenarios import VARIANT_NAMES, run_chaos
from repro.scenarios.chaos import ENGINE_FAULT_SITES, NETWORK_FAULT_SITES

SCALE = 30
OPS = 200

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "11"))
FAULT_SEED = int(os.environ.get("REPRO_CHAOS_FAULT_SEED", "42"))


@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_chaos_run_heals_to_twin_equivalence(tmp_path, variant):
    report = run_chaos(variant, seed=SEED, fault_seed=FAULT_SEED,
                       data_dir=str(tmp_path / "victim"),
                       scale=SCALE, ops=OPS)
    assert report.ok, report.describe()
    # The schedule must have armed (and fired) every engine-side fault kind;
    # the remote variant adds every wire fault kind on top.
    expected_sites = dict(ENGINE_FAULT_SITES)
    if variant == "remote":
        expected_sites.update(NETWORK_FAULT_SITES)
    expected = {(site, kind) for site, kinds in expected_sites.items()
                for kind in kinds}
    assert set(report.armed) == expected
    assert set(report.fired) >= expected, report.describe()
    # The schedule actually bit: the victim had to heal at least once.
    assert report.retries > 0, report.describe()


def test_chaos_is_reproducible_from_seeds(tmp_path):
    """The printed (seed, fault_seed) pair pins the entire run."""
    first = run_chaos("compiled", seed=SEED + 1, fault_seed=FAULT_SEED + 1,
                      data_dir=str(tmp_path / "a"), scale=SCALE, ops=OPS)
    second = run_chaos("compiled", seed=SEED + 1, fault_seed=FAULT_SEED + 1,
                      data_dir=str(tmp_path / "b"), scale=SCALE, ops=OPS)
    assert first.ok and second.ok, (first.describe(), second.describe())
    assert first.armed == second.armed
    assert first.fired == second.fired
    assert (first.ops_run, first.retries, first.recoveries) == \
        (second.ops_run, second.retries, second.recoveries)
