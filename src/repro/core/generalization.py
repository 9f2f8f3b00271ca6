"""Generalization trees and degradation functions (paper §II, Fig. 1).

A *generalization tree* (GT) gives, for one attribute domain, the values an
attribute can take at every accuracy level of its lifetime.  Level ``0`` is the
most accurate (the GT leaves, the value at collection time); higher levels walk
towards the root; the last level is the fully suppressed root (the paper's
``d4`` in Fig. 2 corresponds to removal, which the engine handles at the tuple
level).

The degradation function ``f_k`` of the paper maps any value whose accuracy is
at least ``k`` (i.e. stored at a level ``j <= k``) to its ancestor at level
``k``.  Three concrete schemes are provided:

* :class:`GeneralizationTree` — an explicit tree given by leaf-to-root paths
  (the location domain of Fig. 1 is the canonical example).
* :class:`NumericRangeGeneralization` — numbers degraded into progressively
  wider ranges (the paper's ``RANGE1000 FOR P.SALARY``).
* :class:`TimestampGeneralization` — timestamps degraded into coarser buckets
  (minute → hour → day → month).

All schemes share the :class:`GeneralizationScheme` interface so life cycle
policies, storage and the query processor never care which kind they handle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .clock import DAY, HOUR, MINUTE, MONTH
from .errors import GeneralizationError, UnknownValueError
from .values import SUPPRESSED


class GeneralizationScheme:
    """Interface of every generalization scheme (one per attribute domain)."""

    #: Human readable name of the domain ("location", "salary"...).
    name: str = "domain"

    @property
    def num_levels(self) -> int:
        """Total number of accuracy levels, including level 0 and the root."""
        raise NotImplementedError

    @property
    def max_level(self) -> int:
        """The level of the fully suppressed root."""
        return self.num_levels - 1

    def level_name(self, level: int) -> str:
        """Human readable name of ``level`` ("city", "country"...)."""
        self._check_level(level)
        return f"level{level}"

    def level_of_name(self, name: str) -> int:
        """Inverse of :meth:`level_name` (case insensitive)."""
        wanted = name.strip().lower()
        for level in range(self.num_levels):
            if self.level_name(level).lower() == wanted:
                return level
        raise GeneralizationError(
            f"domain {self.name!r} has no accuracy level named {name!r}"
        )

    def generalize(self, value: Any, to_level: int, from_level: int = 0) -> Any:
        """Apply the degradation function ``f_{to_level}``.

        ``value`` must be expressed at ``from_level``; the result is the value
        generalized to ``to_level``.  Degradation is monotonic: ``to_level``
        must be greater than or equal to ``from_level``.
        """
        raise NotImplementedError

    def values_at_level(self, level: int) -> Optional[List[Any]]:
        """Enumerate the possible values at ``level`` when the domain is finite,
        ``None`` otherwise."""
        self._check_level(level)
        return None

    def contains(self, value: Any, level: int = 0) -> bool:
        """True when ``value`` is a legal value at ``level``."""
        try:
            self.generalize(value, level, from_level=level)
        except GeneralizationError:
            return False
        return True

    # -- helpers -----------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise GeneralizationError(
                f"domain {self.name!r} has levels 0..{self.max_level}, got {level}"
            )

    def _check_transition(self, from_level: int, to_level: int) -> None:
        self._check_level(from_level)
        self._check_level(to_level)
        if to_level < from_level:
            raise GeneralizationError(
                f"degradation is irreversible: cannot go from level {from_level} "
                f"back to level {to_level} in domain {self.name!r}"
            )

    def describe(self) -> str:
        """One line summary used by ``EXPLAIN`` style output."""
        names = ", ".join(self.level_name(i) for i in range(self.num_levels))
        return f"{self.name}: {names}"


@dataclass
class _Node:
    """Internal node of an explicit generalization tree."""

    value: Any
    level: int
    parent: Optional["_Node"] = None
    children: List["_Node"] = field(default_factory=list)

    def ancestor_at(self, level: int) -> "_Node":
        node = self
        while node.level < level:
            if node.parent is None:
                raise GeneralizationError(
                    f"value {self.value!r} has no ancestor at level {level}"
                )
            node = node.parent
        if node.level != level:
            raise GeneralizationError(
                f"value {self.value!r} cannot be expressed at level {level}"
            )
        return node


class GeneralizationTree(GeneralizationScheme):
    """Explicit generalization tree built from leaf-to-root paths.

    The tree is *uniform*: every leaf sits at the same depth, which is what
    makes the paper's accuracy levels well defined.  The root is always the
    :data:`~repro.core.values.SUPPRESSED` sentinel, added implicitly if the
    provided paths do not end with it.

    >>> gt = GeneralizationTree.from_paths(
    ...     "location",
    ...     [("21 rue X, Paris", "Paris", "Ile-de-France", "France"),
    ...      ("5 av Y, Lyon", "Lyon", "Rhone-Alpes", "France")],
    ...     level_names=["address", "city", "region", "country"])
    >>> gt.generalize("21 rue X, Paris", 1)
    'Paris'
    >>> gt.generalize("5 av Y, Lyon", 3)
    'France'
    >>> gt.generalize("Paris", 2, from_level=1)
    'Ile-de-France'
    """

    def __init__(self, name: str, level_names: Sequence[str], root: _Node,
                 nodes_by_level: Dict[int, Dict[Any, _Node]]) -> None:
        self.name = name
        self._level_names = list(level_names)
        self._root = root
        self._nodes_by_level = nodes_by_level

    # -- construction ------------------------------------------------------

    @classmethod
    def from_paths(cls, name: str, paths: Iterable[Sequence[Any]],
                   level_names: Optional[Sequence[str]] = None) -> "GeneralizationTree":
        """Build a tree from ``paths`` going leaf → root (root excluded).

        Every path must have the same length.  The suppressed root is appended
        automatically, so a 4 element path produces a 5 level domain.
        """
        paths = [tuple(path) for path in paths]
        if not paths:
            raise GeneralizationError(f"domain {name!r}: no generalization paths given")
        depth = len(paths[0])
        if depth < 1:
            raise GeneralizationError(f"domain {name!r}: empty generalization path")
        for path in paths:
            if len(path) != depth:
                raise GeneralizationError(
                    f"domain {name!r}: all generalization paths must have the same "
                    f"length (expected {depth}, got {len(path)} for {path!r})"
                )

        if level_names is None:
            level_names = [f"level{i}" for i in range(depth)] + ["suppressed"]
        else:
            level_names = list(level_names)
            if len(level_names) == depth:
                level_names.append("suppressed")
            elif len(level_names) != depth + 1:
                raise GeneralizationError(
                    f"domain {name!r}: expected {depth} or {depth + 1} level names, "
                    f"got {len(level_names)}"
                )

        root = _Node(value=SUPPRESSED, level=depth)
        nodes_by_level: Dict[int, Dict[Any, _Node]] = {depth: {SUPPRESSED: root}}
        for level in range(depth):
            nodes_by_level[level] = {}

        for path in paths:
            parent = root
            # Walk the path from the root side (last element) down to the leaf.
            for level in range(depth - 1, -1, -1):
                value = path[level]
                existing = nodes_by_level[level].get(value)
                if existing is None:
                    node = _Node(value=value, level=level, parent=parent)
                    parent.children.append(node)
                    nodes_by_level[level][value] = node
                else:
                    if existing.parent is not parent:
                        raise GeneralizationError(
                            f"domain {name!r}: value {value!r} at level {level} has two "
                            f"different parents ({existing.parent.value!r} and "
                            f"{parent.value!r}); a generalization tree must be a tree"
                        )
                    node = existing
                parent = node
        return cls(name, level_names, root, nodes_by_level)

    # -- GeneralizationScheme ------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self._level_names)

    def level_name(self, level: int) -> str:
        self._check_level(level)
        return self._level_names[level]

    def generalize(self, value: Any, to_level: int, from_level: int = 0) -> Any:
        self._check_transition(from_level, to_level)
        if value is SUPPRESSED:
            if from_level != self.max_level:
                raise UnknownValueError(
                    f"domain {self.name!r}: SUPPRESSED is only valid at the root level"
                )
            return SUPPRESSED
        if to_level == self.max_level:
            return SUPPRESSED
        node = self._nodes_by_level.get(from_level, {}).get(value)
        if node is None:
            raise UnknownValueError(
                f"domain {self.name!r}: unknown value {value!r} at level {from_level}"
            )
        return node.ancestor_at(to_level).value

    def values_at_level(self, level: int) -> List[Any]:
        self._check_level(level)
        return list(self._nodes_by_level[level].keys())

    def leaves(self) -> List[Any]:
        """All level-0 values (useful to workload generators)."""
        return self.values_at_level(0)

    def children_of(self, value: Any, level: int) -> List[Any]:
        """Values at ``level - 1`` that generalize to ``value``."""
        self._check_level(level)
        node = self._nodes_by_level.get(level, {}).get(value)
        if node is None:
            raise UnknownValueError(
                f"domain {self.name!r}: unknown value {value!r} at level {level}"
            )
        return [child.value for child in node.children]

    def level_of(self, value: Any) -> int:
        """Infer the level of ``value`` (requires globally unique node values)."""
        matches = [level for level, nodes in self._nodes_by_level.items() if value in nodes]
        if not matches:
            raise UnknownValueError(f"domain {self.name!r}: unknown value {value!r}")
        if len(matches) > 1:
            raise GeneralizationError(
                f"domain {self.name!r}: value {value!r} is ambiguous across levels {matches}"
            )
        return matches[0]


class NumericRangeGeneralization(GeneralizationScheme):
    """Numbers degraded into progressively wider half-open ranges.

    ``widths`` gives the bucket width of each level above level 0; the final
    level is always full suppression.  The paper's ``RANGE1000 FOR P.SALARY``
    corresponds to the level whose width is 1000.

    Degraded values are rendered as ``"lo-hi"`` strings (matching the query
    example ``SALARY = '2000-3000'`` of the paper) but carry their numeric
    bounds for range predicates.
    """

    def __init__(self, name: str, widths: Sequence[float],
                 level_names: Optional[Sequence[str]] = None,
                 origin: float = 0.0, integral: bool = True) -> None:
        if not widths:
            raise GeneralizationError(f"domain {name!r}: at least one range width required")
        previous = 0.0
        for width in widths:
            if width <= 0:
                raise GeneralizationError(f"domain {name!r}: widths must be positive")
            if width < previous:
                raise GeneralizationError(
                    f"domain {name!r}: widths must be non-decreasing to keep degradation "
                    f"monotonic (got {list(widths)!r})"
                )
            previous = width
        self.name = name
        self.widths = [float(w) for w in widths]
        self.origin = float(origin)
        self.integral = integral
        if level_names is None:
            level_names = ["exact"] + [f"range{int(w) if w == int(w) else w}" for w in widths]
            level_names.append("suppressed")
        else:
            level_names = list(level_names)
            expected = len(widths) + 2
            if len(level_names) == expected - 1:
                level_names.append("suppressed")
            elif len(level_names) != expected:
                raise GeneralizationError(
                    f"domain {name!r}: expected {expected - 1} or {expected} level names"
                )
        self._level_names = level_names

    @property
    def num_levels(self) -> int:
        return len(self.widths) + 2

    def level_name(self, level: int) -> str:
        self._check_level(level)
        return self._level_names[level]

    def bucket(self, value: float, level: int) -> Tuple[float, float]:
        """Return the ``[lo, hi)`` bounds of ``value`` at ``level`` (1-based ranges)."""
        self._check_level(level)
        if level == 0 or level == self.max_level:
            raise GeneralizationError("bucket() is only defined for range levels")
        width = self.widths[level - 1]
        lo = self.origin + ((float(value) - self.origin) // width) * width
        return lo, lo + width

    def format_range(self, lo: float, hi: float) -> str:
        if self.integral:
            return f"{int(lo)}-{int(hi)}"
        return f"{lo}-{hi}"

    _RANGE_PATTERN = re.compile(r"^\s*(-?\d+(?:\.\d+)?)-(-?\d+(?:\.\d+)?)\s*$")

    def parse_range(self, text: str) -> Tuple[float, float]:
        """Parse a ``"lo-hi"`` literal back to numeric bounds (negatives allowed)."""
        match = self._RANGE_PATTERN.match(text)
        if match is None:
            raise GeneralizationError(f"not a range literal: {text!r}")
        return float(match.group(1)), float(match.group(2))

    def generalize(self, value: Any, to_level: int, from_level: int = 0) -> Any:
        self._check_transition(from_level, to_level)
        if to_level == self.max_level:
            return SUPPRESSED
        if value is SUPPRESSED:
            if from_level != self.max_level:
                raise UnknownValueError(
                    f"domain {self.name!r}: SUPPRESSED is only valid at the root level"
                )
            return SUPPRESSED
        if from_level == 0:
            numeric = float(value)
        else:
            # A range literal: re-anchor on its lower bound, which is enough
            # because widths are non-decreasing multiples in practice.
            lo, _hi = self.parse_range(value) if isinstance(value, str) else value
            numeric = float(lo)
        if to_level == from_level:
            return value
        if to_level == 0:
            return value
        lo, hi = self.bucket(numeric, to_level)
        return self.format_range(lo, hi)

    def values_at_level(self, level: int) -> Optional[List[Any]]:
        self._check_level(level)
        if level == self.max_level:
            return [SUPPRESSED]
        return None


class TimestampGeneralization(GeneralizationScheme):
    """Timestamps (seconds) degraded into coarser and coarser buckets.

    Default levels follow the paper's LCP example granularity: exact → minute
    → hour → day → month → suppressed.
    """

    DEFAULT_BUCKETS: Tuple[Tuple[str, float], ...] = (
        ("minute", MINUTE),
        ("hour", HOUR),
        ("day", DAY),
        ("month", MONTH),
    )

    def __init__(self, name: str = "timestamp",
                 buckets: Optional[Sequence[Tuple[str, float]]] = None) -> None:
        self.name = name
        self.buckets = list(buckets) if buckets is not None else list(self.DEFAULT_BUCKETS)
        previous = 0.0
        for label, width in self.buckets:
            if width <= previous:
                raise GeneralizationError(
                    f"domain {name!r}: bucket widths must be increasing"
                )
            previous = width
        self._level_names = ["exact"] + [label for label, _ in self.buckets] + ["suppressed"]

    @property
    def num_levels(self) -> int:
        return len(self.buckets) + 2

    def level_name(self, level: int) -> str:
        self._check_level(level)
        return self._level_names[level]

    def generalize(self, value: Any, to_level: int, from_level: int = 0) -> Any:
        self._check_transition(from_level, to_level)
        if to_level == self.max_level:
            return SUPPRESSED
        if value is SUPPRESSED:
            if from_level != self.max_level:
                raise UnknownValueError(
                    f"domain {self.name!r}: SUPPRESSED is only valid at the root level"
                )
            return SUPPRESSED
        if to_level == from_level:
            return value
        numeric = float(value)
        width = self.buckets[to_level - 1][1]
        return (numeric // width) * width

    def values_at_level(self, level: int) -> Optional[List[Any]]:
        self._check_level(level)
        if level == self.max_level:
            return [SUPPRESSED]
        return None


__all__ = [
    "GeneralizationScheme",
    "GeneralizationTree",
    "NumericRangeGeneralization",
    "TimestampGeneralization",
]
