"""GDPR-retention scenario suite: macro-workloads over the whole engine.

Models a les-emplois-style labour-inclusion platform — job seekers, employer
companies, work approvals, employment records, applications — with per-
attribute retention policies (generalize, suppress, remove), seeded data
generators and a mixed op-stream driver.  A differential oracle replays the
same stream against every engine variant (compiled, remote) and the
reference model — the paper's semantics over Python lists — and demands
identical results; a retention checker independently
re-derives each attribute's mandated accuracy floor from the policy automaton
and asserts the stores never exceed it.  Chaos mode replays the same streams
under a seeded fault schedule (I/O errors, dropped sockets, clock skips) and
demands the healed victim still matches an unfaulted twin.
"""

from .chaos import (
    ENGINE_FAULT_SITES,
    NETWORK_FAULT_SITES,
    ChaosGaveUp,
    ChaosReport,
    ChaosRunner,
    arm_schedule,
    run_chaos,
)
from .driver import DEFAULT_MIX, Op, OpResult, OpStream, ReplayReport, replay, run_op
from .generator import InclusionGenerator, TableBatch, employee_salary
from .inclusion import InclusionScenario, paranoid_user
from .oracle import DifferentialOracle, Mismatch, OracleReport, format_failure, minimize_trace
from .retention import (
    RetentionViolation,
    check_engine,
    expired_employee_salaries,
    forensic_leaks,
    retention_report,
)
from .reference import ReferenceModel
from .variants import REFERENCE, VARIANT_NAMES, ScenarioVariant, build_variants, reference_model

__all__ = [
    "InclusionScenario", "paranoid_user",
    "InclusionGenerator", "TableBatch", "employee_salary",
    "Op", "OpStream", "OpResult", "ReplayReport", "replay", "run_op",
    "DEFAULT_MIX",
    "DifferentialOracle", "Mismatch", "OracleReport", "minimize_trace",
    "format_failure",
    "RetentionViolation", "check_engine", "forensic_leaks",
    "expired_employee_salaries", "retention_report",
    "ScenarioVariant", "build_variants", "VARIANT_NAMES", "REFERENCE",
    "ReferenceModel", "reference_model",
    "ChaosGaveUp", "ChaosReport", "ChaosRunner", "arm_schedule", "run_chaos",
    "ENGINE_FAULT_SITES", "NETWORK_FAULT_SITES",
]
