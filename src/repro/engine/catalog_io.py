"""Catalog persistence: snapshot / restore the DDL state through the WAL.

``InstantDB`` logs a ``CATALOG`` record (a JSON document produced by
:func:`snapshot_catalog`) whenever a transaction that changed DDL state
commits, and again at the head of every checkpoint so WAL truncation never
loses it.  :meth:`InstantDB.recover` feeds the latest such document to
:func:`restore_catalog` *before* replaying data records, which makes reopening
a database a true one-call operation — no caller-side re-running of DDL.

Everything here is structural: generalization schemes are serialized as the
paths / widths / buckets they were built from, policies as their state lists
and transition specs, tables as column definitions plus policy bindings.  The
document carries schema state only — which includes the **domain ontology**
(a generalization tree's leaf paths enumerate every accurate value the domain
*admits*) and per-tuple override selector values (row keys, the same
sensitivity class as the keys in ``SCHED`` records), but never any inserted
tuple's data.  The ontology exists independently of the rows, so catalog
records are exempt from scrubbing and the forensic scanner greps the WAL
through :meth:`~repro.storage.wal.WriteAheadLog.forensic_image`, which
redacts catalog documents rather than flag the vocabulary as a retained
value.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.errors import CatalogError
from ..core.generalization import (
    GeneralizationScheme,
    GeneralizationTree,
    NumericRangeGeneralization,
    TimestampGeneralization,
)
from ..core.lcp import AttributeLCP, Transition
from ..core.policy import AccuracyRequirement, Purpose, TablePolicy
from ..core.schema import Column, TableSchema

#: Bumped when the snapshot layout changes incompatibly.
CATALOG_FORMAT = 1


# -- schemes -----------------------------------------------------------------

def scheme_to_spec(scheme: GeneralizationScheme) -> Dict[str, Any]:
    """Serialize a generalization scheme to a JSON-safe structural spec."""
    if isinstance(scheme, GeneralizationTree):
        depth = scheme.max_level
        paths: List[List[Any]] = []
        for leaf in scheme.values_at_level(0):
            node = scheme._nodes_by_level[0][leaf]
            path = []
            while node is not None and node.level < depth:
                path.append(node.value)
                node = node.parent
            paths.append(path)
        return {"type": "tree", "name": scheme.name,
                "level_names": list(scheme._level_names), "paths": paths}
    if isinstance(scheme, NumericRangeGeneralization):
        return {"type": "range", "name": scheme.name,
                "widths": list(scheme.widths),
                "level_names": list(scheme._level_names),
                "origin": scheme.origin, "integral": scheme.integral}
    if isinstance(scheme, TimestampGeneralization):
        return {"type": "timestamp", "name": scheme.name,
                "buckets": [[label, width] for label, width in scheme.buckets]}
    raise CatalogError(
        f"domain {scheme.name!r} ({type(scheme).__name__}) cannot be "
        "serialized to the catalog log; register a built-in scheme kind or "
        "re-run DDL before recover()"
    )


def scheme_from_spec(spec: Dict[str, Any]) -> GeneralizationScheme:
    kind = spec.get("type")
    if kind == "tree":
        return GeneralizationTree.from_paths(
            spec["name"], [tuple(path) for path in spec["paths"]],
            level_names=spec["level_names"])
    if kind == "range":
        return NumericRangeGeneralization(
            spec["name"], spec["widths"], level_names=spec["level_names"],
            origin=spec["origin"], integral=spec["integral"])
    if kind == "timestamp":
        return TimestampGeneralization(
            spec["name"], buckets=[tuple(b) for b in spec["buckets"]])
    raise CatalogError(f"unknown scheme kind in catalog record: {kind!r}")


# -- policies ----------------------------------------------------------------

def _transition_spec(transition: Transition) -> Dict[str, Any]:
    if transition.timed:
        return {"delay": float(transition.delay)}
    return {"event": transition.event}


def policy_to_spec(policy: AttributeLCP) -> Dict[str, Any]:
    return {
        "name": policy.name,
        "domain": policy.scheme.name,
        "states": list(policy.states),
        "transitions": [_transition_spec(t) for t in policy.transitions],
    }


def policy_from_spec(spec: Dict[str, Any], registry) -> AttributeLCP:
    scheme = registry.domain(spec["domain"])
    return AttributeLCP(scheme, states=spec["states"],
                        transitions=spec["transitions"], name=spec["name"])


def _policy_ref(policy: AttributeLCP, registry) -> Dict[str, Any]:
    """A named reference when the registry knows this exact policy, else the
    full structural spec (unregistered per-tuple override policies)."""
    name = policy.name
    if name and registry.has_policy(name) and registry.policy(name) is policy:
        return {"ref": name}
    return policy_to_spec(policy)


def _policy_deref(spec: Dict[str, Any], registry) -> AttributeLCP:
    if "ref" in spec:
        return registry.policy(spec["ref"])
    return policy_from_spec(spec, registry)


# -- tables ------------------------------------------------------------------

def _column_spec(column: Column) -> Dict[str, Any]:
    return {
        "name": column.name,
        "type": column.value_type.value,
        "degradable": column.degradable,
        "domain": column.domain,
        "policy": column.policy,
        "nullable": column.nullable,
        "primary_key": column.primary_key,
    }


def _table_spec(info, registry) -> Dict[str, Any]:
    policy = info.policy
    policy_spec = None
    if policy is not None:
        policy_spec = {
            "remove_on_final": policy.remove_on_final,
            "selector_column": policy.selector_column,
            "columns": {column: _policy_ref(lcp, registry)
                        for column, lcp in policy.column_policies.items()},
            "overrides": [
                [selector, {column: _policy_ref(lcp, registry)
                            for column, lcp in per_column.items()}]
                for selector, per_column in policy.per_tuple_policies.items()
            ],
        }
    return {
        "name": info.schema.name,
        "columns": [_column_spec(column) for column in info.schema.columns],
        "policy": policy_spec,
        "indexes": [
            {"name": index.name, "column": index.column, "method": index.method}
            for index in info.indexes.values() if not index.implicit
        ],
    }


def _schema_from_spec(spec: Dict[str, Any]) -> TableSchema:
    columns = [
        Column(name=c["name"], value_type=c["type"], degradable=c["degradable"],
               domain=c["domain"], policy=c["policy"], nullable=c["nullable"],
               primary_key=c["primary_key"])
        for c in spec["columns"]
    ]
    return TableSchema(spec["name"], columns)


def _table_policy_from_spec(name: str, spec: Dict[str, Any],
                            registry) -> TablePolicy:
    policy = TablePolicy(
        table=name,
        column_policies={column: _policy_deref(ref, registry)
                         for column, ref in spec["columns"].items()},
        remove_on_final=spec["remove_on_final"],
        selector_column=spec["selector_column"],
    )
    for selector, per_column in spec["overrides"]:
        policy.register_override(selector, {
            column: _policy_deref(ref, registry)
            for column, ref in per_column.items()
        })
    return policy


# -- purposes ----------------------------------------------------------------

def _purpose_spec(purpose: Purpose) -> Dict[str, Any]:
    return {
        "name": purpose.name,
        "description": purpose.description,
        "requirements": [[req.table, req.column, req.level]
                         for req in purpose.requirements()],
    }


def _purpose_from_spec(spec: Dict[str, Any]) -> Purpose:
    return Purpose(spec["name"],
                   requirements=[AccuracyRequirement(table, column, level)
                                 for table, column, level in spec["requirements"]],
                   description=spec.get("description", ""))


# -- whole catalog -----------------------------------------------------------

def snapshot_catalog(db) -> Dict[str, Any]:
    """Serialize the engine's full DDL state to a JSON-safe document."""
    registry = db.registry
    return {
        "format": CATALOG_FORMAT,
        "domains": [scheme_to_spec(scheme)
                    for scheme in registry.domains().values()],
        "policies": [policy_to_spec(policy)
                     for policy in registry.policies().values()],
        "tables": [_table_spec(info, registry) for info in db.catalog.tables()],
        "purposes": [_purpose_spec(purpose)
                     for purpose in db.catalog.purposes()],
    }


def restore_catalog(db, snapshot: Dict[str, Any]) -> None:
    """Rebuild the DDL state of ``db`` from a :func:`snapshot_catalog` document.

    Registers domains / policies, recreates every table (schema, policy
    bindings, per-tuple overrides, empty stores, index structures) and every
    purpose — all without logging new WAL records, since the reopened log
    already holds them.  Keys this build does not write are ignored, so a
    record an older build wrote with more keys still restores.
    """
    fmt = snapshot.get("format")
    if fmt != CATALOG_FORMAT:
        raise CatalogError(f"unsupported catalog record format: {fmt!r}")
    registry = db.registry
    for spec in snapshot["domains"]:
        if not registry.has_domain(spec["name"]):
            registry.register_domain(scheme_from_spec(spec))
    for spec in snapshot["policies"]:
        if not registry.has_policy(spec["name"]):
            registry.register_policy(policy_from_spec(spec, registry))
    for table in snapshot["tables"]:
        schema = _schema_from_spec(table)
        policy = None
        if table["policy"] is not None:
            policy = _table_policy_from_spec(schema.name, table["policy"],
                                             registry)
        db._attach_recovered_table(schema, policy)
        for index in table["indexes"]:
            db._attach_recovered_index(schema.name, index["name"],
                                       index["column"], index["method"])
    for spec in snapshot["purposes"]:
        db.catalog.add_purpose(_purpose_from_spec(spec))


def encode_catalog(snapshot: Dict[str, Any]) -> bytes:
    """Serialize a snapshot document to the ``after`` payload of a CATALOG
    WAL record (sorted keys keep the bytes deterministic across runs)."""
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


def latest_catalog_snapshot(wal) -> Optional[Dict[str, Any]]:
    """The last CATALOG record's document in ``wal``, or ``None``."""
    from ..storage.wal import LogRecordType
    payload = None
    for record in wal:
        if record.record_type is LogRecordType.CATALOG and record.after:
            payload = record.after
    if payload is None:
        return None
    return json.loads(payload.decode("utf-8"))


__all__ = [
    "CATALOG_FORMAT",
    "encode_catalog",
    "latest_catalog_snapshot",
    "policy_from_spec",
    "policy_to_spec",
    "restore_catalog",
    "scheme_from_spec",
    "scheme_to_spec",
    "snapshot_catalog",
]
