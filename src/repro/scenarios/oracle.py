"""Cross-engine differential oracle.

The oracle replays one seeded op stream across several engine variants in
lockstep and demands **identical canonical results for every op** — same rows
(sentinel identity included), same rowcounts, same retention/forensic
counters.  The reference is the model of :mod:`repro.scenarios.reference`,
which shares no planner, store, index or scheduler with the engines; any
disagreement is an engine bug (or a model bug) by definition.

On disagreement the oracle reports the seed and a *minimized* op trace: the
failing stream is first restricted to ops touching the tables involved (plus
all clock waves, which change visibility globally), then greedily shrunk
while the disagreement still reproduces on fresh engine pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .driver import Op, OpResult, run_op
from .variants import ScenarioVariant


@dataclass(frozen=True)
class Mismatch:
    """One op on which a variant disagreed with the reference engine."""

    op: Op
    reference: str
    variant: str
    expected: OpResult
    actual: OpResult

    def describe(self) -> str:
        return (f"{self.op.describe()}\n"
                f"  {self.reference} (reference): {self.expected.payload!r}\n"
                f"  {self.variant}: {self.actual.payload!r}")


@dataclass
class OracleReport:
    """Outcome of one lockstep run."""

    reference: str
    variants: Tuple[str, ...]
    ops_run: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    retention_checks: int = 0
    retention_violations: int = 0
    #: op kind -> count, for sanity-checking mix coverage.
    kind_counts: Dict[str, int] = field(default_factory=dict)
    #: variant -> per-op latencies (seconds), for benchmark reporting.
    latencies: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.retention_violations == 0


class DifferentialOracle:
    """Lockstep replay of one op stream across variants, with invariants armed.

    ``variants`` maps name -> built, *loaded* variant; the first entry is the
    reference.  With ``check_retention`` the retention invariant checker runs
    on every variant after every wave op.
    """

    def __init__(self, variants: Dict[str, ScenarioVariant],
                 salaries: Optional[Dict[int, int]] = None,
                 check_retention: bool = True) -> None:
        if len(variants) < 2:
            raise ValueError("differential oracle needs at least two variants")
        self.variants = variants
        self.salaries = salaries or {}
        self.check_retention = check_retention
        self.reference = next(iter(variants))

    def run(self, ops: Sequence[Op], fail_fast: bool = True) -> OracleReport:
        names = tuple(self.variants)
        report = OracleReport(reference=self.reference, variants=names,
                              latencies={name: [] for name in names})
        for op in ops:
            report.kind_counts[op.kind] = report.kind_counts.get(op.kind, 0) + 1
            results: Dict[str, OpResult] = {}
            for name, variant in self.variants.items():
                result = run_op(variant, op, salaries=self.salaries)
                results[name] = result
                report.latencies[name].append(result.seconds)
            report.ops_run += 1
            expected = results[self.reference]
            for name in names[1:]:
                if not results[name].matches(expected):
                    report.mismatches.append(Mismatch(
                        op=op, reference=self.reference, variant=name,
                        expected=expected, actual=results[name]))
            if self.check_retention and op.kind == "wave":
                for variant in self.variants.values():
                    report.retention_checks += 1
                    report.retention_violations += \
                        variant.forensic_report()["violations"]
            if fail_fast and not report.ok:
                break
        return report


# ----------------------------------------------------------------- minimization

#: A factory producing a *fresh, loaded* (reference, suspect) variant pair.
PairFactory = Callable[[], Tuple[ScenarioVariant, ScenarioVariant]]


def _reproduces(build_pair: PairFactory, ops: Sequence[Op],
                salaries: Dict[int, int]) -> bool:
    """Does this op subset still produce any disagreement on a fresh pair?"""
    reference, suspect = build_pair()
    try:
        for op in ops:
            expected = run_op(reference, op, salaries=salaries)
            actual = run_op(suspect, op, salaries=salaries)
            if not actual.matches(expected):
                return True
        return False
    finally:
        reference.close()
        suspect.close()


def minimize_trace(build_pair: PairFactory, ops: Sequence[Op],
                   failing: Mismatch,
                   salaries: Optional[Dict[int, int]] = None,
                   budget: int = 16) -> List[Op]:
    """Shrink ``ops`` to a small prefix-closed trace that still disagrees.

    Re-running costs a fresh engine pair per candidate, so the shrink is a
    bounded greedy pass, not ddmin: (1) drop everything after the failing op,
    (2) drop ops touching unrelated tables (waves always stay — the clock is
    global state), (3) try dropping surviving ops one chunk at a time while
    the budget lasts.  Each step keeps the candidate only if the disagreement
    still reproduces from scratch.
    """
    salaries = salaries or {}
    trace = [op for op in ops if op.index <= failing.op.index]
    relevant = set(failing.op.tables)
    if relevant:
        filtered = [op for op in trace
                    if op.kind in ("wave", "forensic")
                    or op.index == failing.op.index
                    or (set(op.tables) & relevant)]
        if filtered != trace and _reproduces(build_pair, filtered, salaries):
            trace = filtered
            budget -= 1
    # Greedy chunked removal (never the final op — it is the witness).
    chunk = max(1, len(trace) // 8)
    while budget > 0 and chunk >= 1:
        removed_any = False
        start = 0
        while start < len(trace) - 1 and budget > 0:
            candidate = trace[:start] + trace[start + chunk:]
            if failing.op not in candidate:
                candidate.append(failing.op)
            budget -= 1
            if len(candidate) < len(trace) and \
                    _reproduces(build_pair, candidate, salaries):
                trace = candidate
                removed_any = True
            else:
                start += chunk
        if not removed_any:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return trace


def format_failure(seed: int, mismatches: Sequence[Mismatch],
                   trace: Optional[Sequence[Op]] = None) -> str:
    """Human-oriented failure text: seed first, then the (minimized) trace."""
    lines = [f"differential oracle failure (seed={seed}, "
             f"{len(mismatches)} mismatching op(s))"]
    for mismatch in mismatches:
        lines.append(mismatch.describe())
    if trace is not None:
        lines.append(f"minimized trace ({len(trace)} ops):")
        for op in trace:
            lines.append("  " + op.describe())
    return "\n".join(lines)


__all__ = ["Mismatch", "OracleReport", "DifferentialOracle",
           "minimize_trace", "format_failure", "PairFactory"]
