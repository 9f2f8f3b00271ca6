"""Purposes, policy bindings and per-table degradation policies.

The paper binds queries to *purposes*: a declared purpose fixes, per
degradable attribute, the accuracy level at which the query observes the data
(``DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION ...``).
This module provides:

* :class:`Purpose` — a named mapping ``(table, column) -> accuracy level``.
* :class:`TablePolicy` — the set of attribute LCPs of one table, from which the
  tuple LCP is derived, plus optional per-tuple policy overrides (the paper's
  "paranoid users defining their own LCP" future-work extension).
* :class:`PolicyRegistry` — name → :class:`AttributeLCP` registry shared by the
  catalog and the DDL layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from .errors import CatalogError, PolicyError
from .generalization import GeneralizationScheme
from .lcp import AttributeLCP, TupleLCP


@dataclass(frozen=True)
class AccuracyRequirement:
    """One ``SET ACCURACY LEVEL <level> FOR <table>.<column>`` clause."""

    table: str
    column: str
    level: Any  # level name (str) or level index (int)

    def resolve(self, scheme: GeneralizationScheme) -> int:
        """Resolve the requirement to a numeric accuracy level for ``scheme``."""
        if isinstance(self.level, int):
            if not 0 <= self.level < scheme.num_levels:
                raise PolicyError(
                    f"accuracy level {self.level} outside domain {scheme.name!r}"
                )
            return self.level
        return scheme.level_of_name(str(self.level))


class Purpose:
    """A declared purpose and the accuracy levels it grants.

    Attributes not mentioned by the purpose are observed at their *stored*
    accuracy (i.e. no extra degradation is applied on read, but the query still
    only sees whatever the LCP left behind).
    """

    def __init__(self, name: str,
                 requirements: Optional[Iterable[AccuracyRequirement]] = None,
                 description: str = "") -> None:
        self.name = name
        self.description = description
        self._requirements: Dict[Tuple[str, str], AccuracyRequirement] = {}
        for req in requirements or ():
            self.add_requirement(req)

    def add_requirement(self, requirement: AccuracyRequirement) -> None:
        key = (requirement.table.lower(), requirement.column.lower())
        self._requirements[key] = requirement

    def require(self, table: str, column: str, level: Any) -> "Purpose":
        """Fluent helper: ``purpose.require("person", "location", "country")``."""
        self.add_requirement(AccuracyRequirement(table, column, level))
        return self

    def requirement_for(self, table: str, column: str) -> Optional[AccuracyRequirement]:
        return self._requirements.get((table.lower(), column.lower()))

    def requirements(self) -> Iterable[AccuracyRequirement]:
        return self._requirements.values()

    def accuracy_for(self, table: str, column: str,
                     scheme: GeneralizationScheme) -> Optional[int]:
        """Numeric accuracy level demanded for ``table.column`` or ``None``."""
        requirement = self.requirement_for(table, column)
        if requirement is None:
            return None
        return requirement.resolve(scheme)

    def describe(self) -> str:
        clauses = ", ".join(
            f"{req.level} FOR {req.table}.{req.column}" for req in self._requirements.values()
        )
        return f"PURPOSE {self.name} SET ACCURACY LEVEL {clauses}" if clauses else \
            f"PURPOSE {self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Purpose {self.describe()}>"


class PolicyRegistry:
    """Registry of named attribute LCPs and generalization schemes."""

    def __init__(self) -> None:
        self._schemes: Dict[str, GeneralizationScheme] = {}
        self._policies: Dict[str, AttributeLCP] = {}

    # -- domains ------------------------------------------------------------

    def register_domain(self, scheme: GeneralizationScheme,
                        name: Optional[str] = None) -> GeneralizationScheme:
        key = (name or scheme.name).lower()
        if key in self._schemes:
            raise CatalogError(f"domain {key!r} already registered")
        self._schemes[key] = scheme
        return scheme

    def domain(self, name: str) -> GeneralizationScheme:
        try:
            return self._schemes[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown domain {name!r}") from None

    def has_domain(self, name: str) -> bool:
        return name.lower() in self._schemes

    def domains(self) -> Dict[str, GeneralizationScheme]:
        return dict(self._schemes)

    # -- policies -----------------------------------------------------------

    def register_policy(self, policy: AttributeLCP,
                        name: Optional[str] = None) -> AttributeLCP:
        key = (name or policy.name).lower()
        if key in self._policies:
            raise CatalogError(f"policy {key!r} already registered")
        self._policies[key] = policy
        return policy

    def policy(self, name: str) -> AttributeLCP:
        try:
            return self._policies[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown life cycle policy {name!r}") from None

    def has_policy(self, name: str) -> bool:
        return name.lower() in self._policies

    def policies(self) -> Dict[str, AttributeLCP]:
        return dict(self._policies)


#: :meth:`TablePolicy.tuple_lcp`'s key for the tuples no override selects.
_DEFAULT = object()


@dataclass
class TablePolicy:
    """Degradation policy of one table: one LCP per degradable column.

    ``remove_on_final`` implements the end of the paper's life cycle: when the
    tuple reaches its final tuple state the record is physically removed from
    the data store (and its index entries and log traces scrubbed).

    ``per_tuple_policies`` optionally selects an alternative set of attribute
    LCPs for a given tuple (keyed on a selector column, e.g. a user id whose
    owner registered a stricter policy).  This is the future-work extension
    evaluated by the A1 ablation benchmark.
    """

    table: str
    column_policies: Dict[str, AttributeLCP] = field(default_factory=dict)
    remove_on_final: bool = True
    selector_column: Optional[str] = None
    per_tuple_policies: Dict[Any, Dict[str, AttributeLCP]] = field(default_factory=dict)
    #: One shared TupleLCP per combination of attribute policies, so the
    #: rows that follow the same policies share one object (and one cohort
    #: of the degradation schedule); and which of them the default and each
    #: override selector value resolve to.
    _interned: Dict[Tuple[AttributeLCP, ...], TupleLCP] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _resolved: Dict[Any, TupleLCP] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add_column(self, column: str, policy: AttributeLCP) -> None:
        self.column_policies[column.lower()] = policy
        self._resolved.clear()

    def has_degradable_columns(self) -> bool:
        return bool(self.column_policies)

    def degradable_columns(self) -> Tuple[str, ...]:
        return tuple(self.column_policies)

    def policy_for(self, column: str, selector_value: Any = None) -> AttributeLCP:
        column = column.lower()
        if selector_value is not None and selector_value in self.per_tuple_policies:
            override = self.per_tuple_policies[selector_value]
            if column in override:
                return override[column]
        try:
            return self.column_policies[column]
        except KeyError:
            raise PolicyError(
                f"table {self.table!r}: column {column!r} is not degradable"
            ) from None

    def register_override(self, selector_value: Any,
                          policies: Mapping[str, AttributeLCP]) -> None:
        """Register a per-tuple policy override (paranoid-user extension)."""
        if self.selector_column is None:
            raise PolicyError(
                f"table {self.table!r}: set selector_column before registering "
                "per-tuple policy overrides"
            )
        self.per_tuple_policies[selector_value] = {
            column.lower(): policy for column, policy in policies.items()
        }
        self._resolved.clear()

    def tuple_lcp(self, selector_value: Any = None) -> TupleLCP:
        """Tuple LCP applying to a tuple (honouring per-tuple overrides):
        the same object for every tuple that follows the same policies."""
        key = selector_value if selector_value is not None \
            and selector_value in self.per_tuple_policies else _DEFAULT
        resolved = self._resolved.get(key)
        if resolved is None:
            resolved = self._resolved[key] = self.interned({
                column: self.policy_for(column, None if key is _DEFAULT else key)
                for column in self.column_policies})
        return resolved

    def interned(self, policies: Mapping[str, AttributeLCP]) -> TupleLCP:
        """The shared TupleLCP of ``policies`` (column → attribute LCP)."""
        key = tuple(policies[column] for column in sorted(policies))
        interned = self._interned.get(key)
        if interned is None:
            interned = self._interned[key] = TupleLCP(policies)
        return interned

    def named(self, names: Optional[Mapping[str, str]],
              registry: PolicyRegistry) -> Optional[TupleLCP]:
        """The shared TupleLCP of persisted attribute → policy ``names`` —
        each found in ``registry``, else among the overrides (whose policies
        need not be registered) — or ``None`` when they do not resolve."""
        if not names or set(names) != set(self.column_policies):
            return None
        resolved: Dict[str, AttributeLCP] = {}
        for attribute, name in names.items():
            if registry.has_policy(name):
                resolved[attribute] = registry.policy(name)
                continue
            found = [override[attribute] for override in self.per_tuple_policies.values()
                     if attribute in override and override[attribute].name == name]
            if not found:
                return None
            resolved[attribute] = found[0]
        return self.interned(resolved)

    def tuple_lcp_of(self, values: Mapping[str, Any]) -> TupleLCP:
        """Tuple LCP of the row holding ``values``: its selector column, if
        the table has one, picks the per-tuple override."""
        selector = self.selector_column
        return self.tuple_lcp(None if selector is None else values.get(selector))

    def scheme_for(self, column: str) -> GeneralizationScheme:
        return self.policy_for(column).scheme

    def describe(self) -> str:
        lines = [f"table {self.table!r} degradation policy "
                 f"(remove_on_final={self.remove_on_final}):"]
        for column, policy in self.column_policies.items():
            lines.append(f"  {column}: {policy.describe()}")
        if self.per_tuple_policies:
            lines.append(
                f"  per-tuple overrides on {self.selector_column!r}: "
                f"{len(self.per_tuple_policies)}"
            )
        return "\n".join(lines)


#: Signature of functions evaluating predicate-conditioned transitions
#: (future-work extension): given the tuple's visible values, return True when
#: the transition may fire.
TransitionGuard = Callable[[Mapping[str, Any]], bool]


__all__ = [
    "AccuracyRequirement",
    "Purpose",
    "PolicyRegistry",
    "TablePolicy",
    "TransitionGuard",
]
