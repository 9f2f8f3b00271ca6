"""k-anonymity baseline.

The paper contrasts data degradation with anonymization: anonymization removes
the link to the donor's identity (and degrades quasi-identifiers until groups
of at least *k* records become indistinguishable), whereas degradation keeps
the identity intact but makes the *event* attributes progressively coarser.

This module implements a global-recoding k-anonymizer over the same
generalization schemes used by the degradation engine: every quasi-identifier
column is generalized uniformly, one level at a time (choosing the column that
currently has the most distinct values), until every equivalence class reaches
size ``k`` or every column is fully suppressed.  It is intentionally simple —
optimal k-anonymity is NP-hard [Meyerson & Williams, PODS'04], which the paper
cites as one argument for degradation — but it exercises the comparison the
B3 usability benchmark needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.generalization import GeneralizationScheme
from ..core.values import SUPPRESSED


@dataclass
class AnonymizationResult:
    """Outcome of a k-anonymization pass."""

    rows: List[Dict[str, Any]]
    levels: Dict[str, int]
    k: int
    satisfied: bool
    equivalence_classes: int
    smallest_class: int
    suppressed_identifiers: bool = True

    def level_of(self, column: str) -> int:
        return self.levels[column]


class KAnonymizer:
    """Global-recoding k-anonymizer over generalization schemes."""

    def __init__(self, schemes: Mapping[str, GeneralizationScheme],
                 identifier_columns: Sequence[str] = ()) -> None:
        if not schemes:
            raise ConfigurationError("at least one quasi-identifier scheme is required")
        self.schemes = {column.lower(): scheme for column, scheme in schemes.items()}
        self.identifier_columns = tuple(column.lower() for column in identifier_columns)

    # -- helpers -----------------------------------------------------------------

    def _generalize_rows(self, rows: Sequence[Mapping[str, Any]],
                         levels: Mapping[str, int]) -> List[Dict[str, Any]]:
        result = []
        for row in rows:
            generalized = dict(row)
            for column in self.identifier_columns:
                if column in generalized:
                    generalized[column] = SUPPRESSED
            for column, scheme in self.schemes.items():
                if column not in generalized:
                    continue
                value = generalized[column]
                if value is SUPPRESSED:
                    continue
                generalized[column] = scheme.generalize(value, levels[column], from_level=0)
            result.append(generalized)
        return result

    def _class_sizes(self, rows: Sequence[Mapping[str, Any]]) -> Counter:
        keys = []
        for row in rows:
            keys.append(tuple(
                (column, _key(row.get(column))) for column in sorted(self.schemes)
            ))
        return Counter(keys)

    # -- main entry point ------------------------------------------------------------

    def anonymize(self, rows: Sequence[Mapping[str, Any]], k: int) -> AnonymizationResult:
        """Generalize ``rows`` until every equivalence class has at least ``k`` members."""
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        levels = {column: 0 for column in self.schemes}
        rows = list(rows)
        if not rows:
            return AnonymizationResult(rows=[], levels=levels, k=k, satisfied=True,
                                       equivalence_classes=0, smallest_class=0)
        while True:
            generalized = self._generalize_rows(rows, levels)
            sizes = self._class_sizes(generalized)
            smallest = min(sizes.values())
            if smallest >= k:
                return AnonymizationResult(
                    rows=generalized, levels=dict(levels), k=k, satisfied=True,
                    equivalence_classes=len(sizes), smallest_class=smallest,
                )
            candidate = self._next_column_to_generalize(generalized, levels)
            if candidate is None:
                return AnonymizationResult(
                    rows=generalized, levels=dict(levels), k=k, satisfied=False,
                    equivalence_classes=len(sizes), smallest_class=smallest,
                )
            levels[candidate] += 1

    def _next_column_to_generalize(self, rows: Sequence[Mapping[str, Any]],
                                   levels: Mapping[str, int]) -> Any:
        """Pick the non-exhausted column with the most distinct values."""
        best_column = None
        best_distinct = -1
        for column, scheme in self.schemes.items():
            if levels[column] >= scheme.max_level:
                continue
            distinct = len({_key(row.get(column)) for row in rows})
            if distinct > best_distinct:
                best_column = column
                best_distinct = distinct
        return best_column

    # -- utility metrics ----------------------------------------------------------------

    def information_loss(self, levels: Mapping[str, int]) -> float:
        """Average normalized generalization height (0 = accurate, 1 = suppressed)."""
        if not levels:
            return 0.0
        total = 0.0
        for column, level in levels.items():
            scheme = self.schemes[column]
            total += level / scheme.max_level
        return total / len(levels)


def _key(value: Any) -> Any:
    if isinstance(value, str):
        return value.lower()
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


__all__ = ["KAnonymizer", "AnonymizationResult"]
