"""Chaos mode: the scenario oracle under a seeded fault schedule.

A :class:`ChaosRunner` replays one seeded scenario op stream on a *victim* engine
whose I/O seams are armed with a seeded :class:`~repro.faults.FaultPlan` —
WAL flush failures, torn writes, ENOSPC, pager sync errors, dropped and
stalled sockets, clock skips — while an identical unfaulted *twin* applies
the same logical stream.  The victim heals the way a real client would:
bounded per-op retries, transparent reconnects, and a ``recover()`` call
whenever a durability fault flips the engine into read-only degraded mode.

At the end the victim's data directory is reopened **cold** (one-call
``InstantDB.recover`` — the catalog comes back from the WAL, no DDL re-run),
both clocks are aligned, and the oracle demands:

* zero retention violations on the recovered victim,
* zero forensic leaks (expired plaintexts unrecoverable from raw bytes),
* canonical read-back equality against the unfaulted twin,
* every armed ``(site, kind)`` fault fired at least once.

Everything derives from two printed seeds (data/stream seed + fault seed),
so any failure is reproducible from its report alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..api.connection import connect as local_connect
from ..core import errors as _errors
from ..engine.database import InstantDB
from ..faults import FaultPlan
from .driver import Op, OpStream, canonical_rows, run_op
from .generator import InclusionGenerator
from .inclusion import InclusionScenario
from .retention import check_engine, retention_report
from .variants import ScenarioVariant

DAY = 86400.0

#: Engine-side fault sites, armable on every variant.
ENGINE_FAULT_SITES: Dict[str, Tuple[str, ...]] = {
    "wal.flush": ("enospc", "torn_write", "fsync"),
    "wal.scrub": ("torn_write", "fsync"),
    "pager.sync": ("enospc", "fsync"),
    "clock.advance": ("skip",),
}

#: Wire fault sites, armable only when the variant crosses a socket.
NETWORK_FAULT_SITES: Dict[str, Tuple[str, ...]] = {
    "server.recv": ("stall", "disconnect"),
    "server.send": ("stall", "truncate", "disconnect"),
    "client.send": ("stall", "truncate", "disconnect"),
    "client.recv": ("stall", "disconnect"),
}

#: Rough per-site call budget over one stream, bounding the nth offsets the
#: schedule may pick so every deterministic rule actually gets to fire.
_SITE_CALL_CEILING: Dict[str, int] = {
    "wal.flush": 40,
    "wal.scrub": 2,
    "pager.sync": 2,
    "clock.advance": 5,
    "server.recv": 30,
    "server.send": 30,
    "client.send": 30,
    "client.recv": 30,
}


def arm_schedule(plan: FaultPlan, fault_seed: int,
                 remote: bool) -> Tuple[Tuple[str, str], ...]:
    """Arm ``plan`` with a seeded schedule; returns the armed (site, kind) set.

    One deterministic ``fail_nth`` per (site, kind) — offsets drawn from the
    fault seed within each site's call budget — plus a low-probability
    background rule per site with a bounded blast radius.  Anything the
    stream fails to trigger is mopped up by the runner afterwards.
    """
    rng = random.Random(fault_seed * 52361 + 7)
    sites = dict(ENGINE_FAULT_SITES)
    if remote:
        sites.update(NETWORK_FAULT_SITES)
    armed: List[Tuple[str, str]] = []
    for site in sorted(sites):
        kinds = sites[site]
        ceiling = _SITE_CALL_CEILING.get(site, 10)
        offsets = rng.sample(range(1, max(len(kinds), ceiling) + 1),
                             len(kinds))
        for kind, nth in zip(kinds, sorted(offsets)):
            plan.fail_nth(site, kind, nth)
            armed.append((site, kind))
        plan.fail_with_probability(site, kinds[0], 0.01, max_fires=2)
    return tuple(armed)


def fired_pairs(plan: FaultPlan) -> Set[Tuple[str, str]]:
    return {(event.site, event.kind) for event in plan.fired}


class ChaosGaveUp(Exception):
    """An op kept failing past the retry budget — the healing contract broke."""


@dataclass
class ChaosReport:
    """Outcome of one chaos run (victim variant vs unfaulted twin)."""

    variant: str
    seed: int
    fault_seed: int
    armed: Tuple[Tuple[str, str], ...] = ()
    ops_run: int = 0
    retries: int = 0
    reconnects: int = 0
    reconnect_failures: int = 0
    recoveries: int = 0
    recovery_faults: int = 0
    rollback_failures: int = 0
    insert_reconciliations: int = 0
    steps_deferred_by_fault: int = 0
    fired: Tuple[Tuple[str, str], ...] = ()
    unfired: Tuple[Tuple[str, str], ...] = ()
    retention: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.mismatches and not self.violations
                and not self.unfired
                and self.retention == {"violations": 0, "leaks": 0})

    def describe(self) -> str:
        lines = [f"chaos[{self.variant}] seed={self.seed} "
                 f"fault_seed={self.fault_seed}: "
                 f"{'OK' if self.ok else 'FAILED'}",
                 f"  ops={self.ops_run} retries={self.retries} "
                 f"recoveries={self.recoveries} reconnects={self.reconnects} "
                 f"deferred_steps={self.steps_deferred_by_fault}",
                 f"  faults fired: {len(self.fired)}/{len(self.armed)} armed"]
        for site, kind in self.unfired:
            lines.append(f"  NEVER FIRED: {site} -> {kind}")
        for text in self.violations[:5]:
            lines.append(f"  retention: {text}")
        for text in self.mismatches[:5]:
            lines.append(f"  mismatch: {text}")
        return "\n".join(lines)


class ChaosRunner:
    """One victim-vs-twin chaos run over one variant.

    ``data_dir`` must be a fresh directory the victim can be cold-reopened
    from; the twin lives in ``data_dir + '-twin'`` unless given its own.
    """

    #: Per-op retry budget.  Every armed rule is finite (nth / bounded
    #: probability), so a healthy engine always gets a clean attempt.
    MAX_ATTEMPTS = 10

    def __init__(self, variant: str, scenario: InclusionScenario,
                 seed: int, fault_seed: int, data_dir: str,
                 twin_dir: Optional[str] = None, ops: int = 200,
                 checkpoint_every: int = 60) -> None:
        self.variant_name = variant
        self.scenario = scenario
        self.seed = seed
        self.fault_seed = fault_seed
        self.data_dir = data_dir
        self.twin_dir = twin_dir or (data_dir.rstrip("/") + "-twin")
        self.ops = ops
        self.checkpoint_every = checkpoint_every
        self.plan = FaultPlan(seed=fault_seed)
        self.report = ChaosReport(variant=variant, seed=seed,
                                  fault_seed=fault_seed)
        self.victim: Optional[ScenarioVariant] = None
        self.twin: Optional[ScenarioVariant] = None
        self.salaries: Dict[int, int] = {}

    # -- plumbing -------------------------------------------------------------

    def _build(self) -> None:
        remote = self.variant_name == "remote"
        server_kwargs = {"fault_plan": self.plan} if remote else None
        connect_kwargs = None
        if remote:
            connect_kwargs = {
                "retries": 3,
                "retry_backoff": 0.005,
                "retry_seed": self.fault_seed,
                "fault_plan": self.plan,
            }
        self.victim = ScenarioVariant(
            self.variant_name, self.scenario, data_dir=self.data_dir,
            fault_plan=self.plan, server_kwargs=server_kwargs,
            connect_kwargs=connect_kwargs)
        self.twin = ScenarioVariant(self.variant_name, self.scenario,
                                    data_dir=self.twin_dir)
        generator = InclusionGenerator(self.scenario, seed=self.seed)
        generator.load(self.victim.connection)
        generator.load(self.twin.connection)
        self.salaries = generator.sensitive_salaries()

    def _victim_now(self) -> float:
        assert self.victim is not None
        return self.victim.now()

    def _twin_now(self) -> float:
        assert self.twin is not None
        return self.twin.now()

    def _sync_twin_clock(self) -> None:
        """Clock skips fault only the victim; pull the twin level again."""
        delta = self._victim_now() - self._twin_now()
        if delta > 0:
            self.twin.advance(delta)

    # -- healing --------------------------------------------------------------

    def _heal(self) -> None:
        assert self.victim is not None
        if self.victim.server is not None:
            # The wire connection may be poisoned or mid-frame dead; a fresh
            # session is always safe (the server rolled back its open txn).
            try:
                self.victim.reconnect()
                self.report.reconnects += 1
            except _errors.Error:
                # The fresh dial's handshake hit an armed wire fault itself.
                # The dead connection stays in place; the next attempt fails
                # fast on it and heals again (armed rules are finite).
                self.report.reconnect_failures += 1
        else:
            try:
                self.victim.connection.rollback()
            except _errors.Error:
                self.report.rollback_failures += 1
        if self.victim.engine_call(lambda db: db.read_only):
            try:
                self.victim.engine_call(lambda db: db.recover(drain=True))
                self.report.recoveries += 1
            except _errors.Error:
                # Recovery itself hit an armed rule and the engine fell back
                # into read-only mode; the next attempt's heal retries it.
                self.report.recovery_faults += 1

    def _insert_applied(self, op: Op) -> bool:
        """Reconcile an ambiguous insert: did an earlier attempt commit?

        A transport failure during COMMIT leaves the outcome unknown; the
        schema has no uniqueness enforcement, so a blind replay would leave
        the victim with a duplicate row the twin does not have.
        """
        assert self.victim is not None and op.params
        cursor = self.victim.execute(
            "SELECT COUNT(*) AS n FROM job_applications WHERE id = ?",
            (op.params[0],))
        count = cursor.fetchall()[0][0]
        self.victim.commit()
        return bool(count)

    def _apply(self, op: Op) -> None:
        """Run one op on the victim to completion, healing between attempts."""
        assert self.victim is not None
        if op.kind == "wave":
            self._apply_wave(op)
            return
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                run_op(self.victim, op, salaries=self.salaries)
                return
            except _errors.Error:
                self.report.retries += 1
                self._heal()
                if op.kind == "insert":
                    try:
                        applied = self._insert_applied(op)
                    except _errors.Error:
                        self._heal()   # reconcile on the next attempt
                        continue
                    if applied:
                        self.report.insert_reconciliations += 1
                        return
        raise ChaosGaveUp(f"{op.describe()} still failing after "
                          f"{self.MAX_ATTEMPTS} attempts\n"
                          + self.plan.describe())

    def _apply_wave(self, op: Op) -> None:
        """Advance to an absolute target so retries never double-advance.

        A faulted wave may die after the clock already moved; replaying the
        relative advance would leave the victim ahead of the twin forever.
        Injected clock *skips* legitimately overshoot the target — the twin
        is pulled level afterwards by :meth:`_sync_twin_clock`.
        """
        assert self.victim is not None
        target = self._victim_now() + op.advance
        for attempt in range(self.MAX_ATTEMPTS):
            remaining = target - self._victim_now()
            if remaining <= 0:
                return
            try:
                self.victim.advance(remaining)
                return
            except _errors.Error:
                self.report.retries += 1
                self._heal()
        raise ChaosGaveUp(f"{op.describe()} still failing after "
                          f"{self.MAX_ATTEMPTS} attempts\n"
                          + self.plan.describe())

    def _checkpoint_both(self) -> None:
        """Periodic checkpoints drive the pager.sync seam."""
        assert self.victim is not None and self.twin is not None
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                self.victim.engine_call(InstantDB.checkpoint)
                break
            except _errors.Error:
                self.report.retries += 1
                self._heal()
        self.twin.engine_call(InstantDB.checkpoint)

    # -- the run --------------------------------------------------------------

    def _replay_stream(self) -> None:
        assert self.twin is not None
        stream = OpStream(self.scenario, seed=self.seed, count=self.ops)
        ops = stream.ops() + stream.epilogue(self.ops)
        for op in ops:
            self._apply(op)
            run_op(self.twin, op, salaries=self.salaries)
            if op.kind == "wave":
                self._sync_twin_clock()
            self.report.ops_run += 1
            if (op.index + 1) % self.checkpoint_every == 0:
                self._checkpoint_both()

    def _mop_up(self, armed: Sequence[Tuple[str, str]]) -> None:
        """Force any never-fired armed fault through a targeted nudge op.

        Keeps the coverage guarantee ("each armed kind fired at least once")
        independent of how the sampled stream happened to exercise each
        site.  Nudge writes are mirrored on the twin so read-back equality
        survives.
        """
        assert self.victim is not None and self.twin is not None
        next_id = self.scenario.num_applications + self.ops + 1000
        for round_index in range(8):
            missing = [pair for pair in armed if pair not in
                       fired_pairs(self.plan)]
            if not missing:
                return
            for site, kind in missing:
                self.plan.fail_once(site, kind)
            nudges = [
                Op(index=-1, kind="insert",
                   sql="INSERT INTO job_applications (id, user_id, "
                       "company_id, status, applicant_address, applied_day) "
                       "VALUES (?, ?, ?, ?, ?, ?)",
                   params=(next_id + round_index, 1, 1, "new",
                           "12 Rue de la Paix, Paris", 0),
                   tables=("job_applications",)),
                Op(index=-1, kind="point_read",
                   sql="SELECT id, status FROM job_applications WHERE id = ?",
                   params=(next_id + round_index,),
                   tables=("job_applications",)),
                Op(index=-1, kind="delete",
                   sql="DELETE FROM job_applications WHERE id = ?",
                   params=(next_id + round_index,),
                   tables=("job_applications",)),
                Op(index=-1, kind="wave", advance=3600.0),
            ]
            for op in nudges:
                self._apply(op)
                run_op(self.twin, op, salaries=self.salaries)
                if op.kind == "wave":
                    self._sync_twin_clock()
            self._checkpoint_both()
        self.report.unfired = tuple(
            pair for pair in armed if pair not in fired_pairs(self.plan))

    def _final_oracle(self) -> None:
        """Cold-reopen the victim, align clocks, and difference the twins."""
        assert self.victim is not None and self.twin is not None
        # Coverage is measured; teardown and the final recovery run clean.
        self.plan.disarm()
        self.report.steps_deferred_by_fault = self.victim.engine_call(
            lambda db: db.daemon.stats.steps_deferred_by_fault)
        if self.victim.engine_call(lambda db: db.read_only):
            self.victim.engine_call(lambda db: db.recover(drain=True))
            self.report.recoveries += 1
        self.victim.close()

        recovered = InstantDB(data_dir=self.data_dir)
        recovery = recovered.recover(drain=True)
        try:
            if recovery.registrations == 0 and not recovered.catalog.tables():
                self.report.violations.append(
                    "cold reopen restored nothing — catalog persistence "
                    "through the WAL is broken")
                return
            # Align clocks, then push both a day past the last deferral
            # backoff so every faulted wave has retried and drained.
            twin_now = self._twin_now()
            if recovered.clock.now() < twin_now:
                recovered.advance_time(twin_now - recovered.clock.now())
            elif twin_now < recovered.clock.now():
                self.twin.advance(recovered.clock.now() - twin_now)
            recovered.advance_time(DAY)
            self.twin.advance(DAY)

            self.report.retention = retention_report(recovered, self.salaries)
            self.report.violations.extend(
                violation.describe() for violation in
                check_engine(recovered)[:10])

            read_backs = [op for op in
                          OpStream(self.scenario, seed=self.seed + 13,
                                   count=60).ops()
                          if op.kind in ("point_read", "range_scan", "join",
                                         "aggregate")]
            connection = local_connect(engine=recovered)
            try:
                for op in read_backs:
                    expected = self.twin.execute(
                        op.sql, op.params, purpose=op.purpose).fetchall()
                    self.twin.commit()
                    actual = connection.execute(
                        op.sql, op.params, purpose=op.purpose).fetchall()
                    connection.commit()
                    if canonical_rows(actual, op.ordered) != \
                            canonical_rows(expected, op.ordered):
                        self.report.mismatches.append(op.describe())
            finally:
                connection.close()
        finally:
            recovered.close()

    def run(self) -> ChaosReport:
        self._build()
        try:
            armed = arm_schedule(self.plan, self.fault_seed,
                                 remote=(self.variant_name == "remote"))
            self.report.armed = armed
            self._replay_stream()
            self._mop_up(armed)
            self._final_oracle()
            self.report.fired = tuple(sorted(fired_pairs(self.plan)))
            self.report.unfired = tuple(
                pair for pair in armed if pair not in fired_pairs(self.plan))
            return self.report
        finally:
            # On the failure path rules may still be armed; teardown must not
            # trip them (close() checkpoints through pager.sync / wal.flush).
            self.plan.disarm()
            if self.victim is not None:
                try:
                    self.victim.close()
                except _errors.Error:  # reprolint: disable=no-swallowed-abort -- best-effort teardown of an already-failed victim; the twin below must still close
                    pass
            if self.twin is not None:
                self.twin.close()


def run_chaos(variant: str, seed: int, fault_seed: int, data_dir: str,
              scale: int = 30, ops: int = 200) -> ChaosReport:
    """One-call chaos run: build, replay, mop up, recover, difference."""
    runner = ChaosRunner(variant, InclusionScenario(scale), seed=seed,
                         fault_seed=fault_seed, data_dir=data_dir, ops=ops)
    return runner.run()


__all__ = [
    "ENGINE_FAULT_SITES", "NETWORK_FAULT_SITES",
    "ChaosGaveUp", "ChaosReport", "ChaosRunner",
    "arm_schedule", "fired_pairs", "run_chaos",
]
