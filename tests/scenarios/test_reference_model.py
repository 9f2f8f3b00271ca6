"""The reference model stays a model: what it may import, and the rule it states
for fully suppressed rows that a ``remove_on_final=False`` policy keeps."""

import ast
from pathlib import Path

import pytest

import repro.scenarios.reference as reference
from repro.core.policy import Purpose
from repro.core.values import SUPPRESSED
from repro.scenarios import REFERENCE, VARIANT_NAMES, InclusionScenario, Op, run_op
from repro.scenarios.driver import canonical_value

from .conftest import build_loaded

#: Layers the model checks, so must not share: their modules and packages.
FORBIDDEN = ("repro.storage", "repro.index", "repro.engine", "repro.txn",
             "repro.core.scheduler", "repro.query")
#: What the model may take from ``repro.query``: the SQL front end only.
ALLOWED_QUERY = ("repro.query.parser", "repro.query.tokens", "repro.query.ast_nodes")


def imported_modules(source, package="repro.scenarios"):
    """Every module an ``import`` in ``source`` names, relative ones resolved
    against ``package`` (``from x import y`` counts ``x`` and ``x.y``)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[:len(parts) - node.level + 1] if node.level else [])
            module = ".".join(filter(None, (base, node.module)))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return names


def forbidden_imports(source):
    def allowed(name):
        return name in ALLOWED_QUERY or any(
            name.startswith(module + ".") for module in ALLOWED_QUERY)

    def forbidden(name):
        return any(name == layer or name.startswith(layer + ".") for layer in FORBIDDEN)

    modules = imported_modules(source)
    # ``from ..query import ast_nodes`` names the package too: judge the leaf
    return sorted(name for name in modules if forbidden(name) and not allowed(name)
                  and not any(other.startswith(name + ".") and allowed(other)
                              for other in modules))


def test_the_model_imports_nothing_it_checks():
    assert forbidden_imports(Path(reference.__file__).read_text()) == []


@pytest.mark.parametrize("line", [
    "from ..storage.heap import HeapFile",
    "from ..query.planner import Planner",
    "from ..query import compiler",
    "from ..core.scheduler import DegradationScheduler",
    "import repro.engine.database",
    "from repro.txn import locks",
    "from ..index.gt_index import GTIndex",
])
def test_the_guard_flags_an_import_from_a_checked_layer(line):
    assert forbidden_imports(line)


@pytest.mark.parametrize("line", [
    "from ..query import ast_nodes as ast",
    "from ..query.parser import parse",
    "from ..query.tokens import TokenStream",
    "from ..core.values import NULL",
    "from ..core.lcp import TupleLCP",
])
def test_the_guard_lets_the_front_end_and_core_definitions_through(line):
    assert forbidden_imports(line) == []


# -- fully suppressed rows a table keeps -----------------------------------------

#: Constrains users.address only: job_applications.applicant_address is
#: unconstrained under it.
AUDIT = Purpose("audit").require("users", "address", "country")
APPLICATIONS = "job_applications"


def op(index, sql, params=(), purpose=None):
    return Op(index, "aggregate" if sql.startswith("SELECT") else "delete", sql, params,
              purpose, tables=(APPLICATIONS,))


def test_fully_suppressed_rows_are_seen_and_deleted_only_where_unconstrained():
    """After 120 days every application address is suppressed (``remove_on_final
    =False`` keeps the row).  A plain query and every scenario purpose exclude
    those rows, and a DELETE or UPDATE under them reaches none; under a
    purpose leaving the column unconstrained they read ``SUPPRESSED`` and a
    DELETE removes them.  Both engine variants follow the model's rule."""
    scenario = InclusionScenario(20)
    variants, _generator = build_loaded(scenario, 5)
    try:
        variants[REFERENCE].catalog.add_purpose(AUDIT)
        for name in VARIANT_NAMES:
            variants[name].engine_call(lambda db: db.define_purpose(AUDIT))
        for variant in variants.values():
            variant.advance(120 * 86400.0)
        count = f"SELECT COUNT(*) AS n FROM {APPLICATIONS}"
        probes = [
            (op(0, count), [(0,)]),
            (op(1, count, purpose="statistics"), [(0,)]),
            (op(2, count, purpose="audit"), [(scenario.num_applications,)]),
            (op(3, f"SELECT id, applicant_address FROM {APPLICATIONS} WHERE id = ?",
                (1,), "audit"), [(1, canonical_value(SUPPRESSED))]),
            (op(4, f"DELETE FROM {APPLICATIONS} WHERE id = ?", (2,)), 0),
            (op(5, f"DELETE FROM {APPLICATIONS} WHERE id = ?", (2,), "casework"), 0),
            (op(6, f"UPDATE {APPLICATIONS} SET status = 'x' WHERE id = ?", (3,)), 0),
            (op(7, f"UPDATE {APPLICATIONS} SET status = 'x' WHERE id = ?", (3,), "audit"), 1),
            (op(8, f"DELETE FROM {APPLICATIONS} WHERE id = ?", (2,), "audit"), 1),
            (op(9, count, purpose="audit"), [(scenario.num_applications - 1,)]),
            (op(10, "SELECT COUNT(*) AS n FROM employee_records", (), "audit"), [(0,)]),
        ]
        for probe, pinned in probes:
            results = {name: run_op(variant, probe) for name, variant in variants.items()}
            expected = results[REFERENCE]
            got = expected.payload if expected.kind == "rowcount" else expected.payload["rows"]
            assert got == pinned, probe.describe()
            for name, result in results.items():
                assert result.matches(expected), (probe.describe(), name)
    finally:
        for variant in variants.values():
            variant.close()
