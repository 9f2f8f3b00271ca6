"""Cross-engine differential oracle.

The oracle replays one seeded op stream across several engine variants in
lockstep and demands **identical canonical results for every op** — same rows
(sentinel identity included), same rowcounts, same retention/forensic
counters.  The reference is the model of :mod:`repro.scenarios.reference`,
which shares no planner, store, index or scheduler with the engines; any
disagreement is an engine bug (or a model bug) by definition.

On disagreement the oracle reports the seed and every mismatching op.  A
minimal reproducer is the job of the engine-vs-model state machine
(``tests/scenarios/test_model_machine.py``), whose rule sequences hypothesis
shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
        report = OracleReport(reference=self.reference, variants=names)
        for op in ops:
            report.kind_counts[op.kind] = report.kind_counts.get(op.kind, 0) + 1
            results = {name: run_op(variant, op, salaries=self.salaries)
                       for name, variant in self.variants.items()}
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


def format_failure(seed: int, mismatches: Sequence[Mismatch]) -> str:
    """Human-oriented failure text: the seed first, then each mismatch."""
    lines = [f"differential oracle failure (seed={seed}, "
             f"{len(mismatches)} mismatching op(s))"]
    lines += [mismatch.describe() for mismatch in mismatches]
    return "\n".join(lines)


__all__ = ["Mismatch", "OracleReport", "DifferentialOracle", "format_failure"]
